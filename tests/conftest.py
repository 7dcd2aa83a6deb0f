"""Shared builders, generators and independent oracles for the test suite.

Randomized tests use explicitly seeded ``random.Random`` instances so
every run exercises the same cases. The multiplication oracle goes
through the complex-pair representation q = z + w j, a different code
path from the Hamilton product in the library.
"""

import math
import random

from qmobius.quat import DEFAULT_TOL, Quaternion
from qmobius import qmat
from qmobius.qmat import MatH2


def unit_complex(theta: float) -> Quaternion:
    return Quaternion(math.cos(theta), math.sin(theta))


def real_matrix(a: float, b: float, c: float, d: float) -> MatH2:
    return MatH2(Quaternion(a), Quaternion(b), Quaternion(c), Quaternion(d))


def j_flip(m: MatH2) -> MatH2:
    """J m J with J = [[0, 1], [1, 0]]: the reversed entry tuple."""
    return MatH2(m.d, m.c, m.b, m.a)


def displacement(s: MatH2, t: MatH2, side: str) -> tuple:
    """``qmat._displacement`` of the pair (S, T) on one side, given the
    squared norms of S's entries."""
    return qmat._displacement(s._coords, t._coords, side, qmat._norms2(s._coords))


def isclose(p: Quaternion, q: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """Componentwise closeness |p - q| <= tol."""
    return (p - q).norm() <= tol


def random_quaternion(rng: random.Random, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(rng.uniform(-scale, scale) for _ in range(4)))


def random_nonzero_quaternion(rng: random.Random, scale: float = 1.0,
                              min_norm: float = 0.1) -> Quaternion:
    while True:
        q = random_quaternion(rng, scale)
        if q.norm() >= min_norm:
            return q


def random_unit_quaternion(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))
        n = q.norm()
        if n > 1e-6:
            return q / n


def random_unit_imaginary(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(0.0, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0),
                       rng.gauss(0.0, 1.0))
        n = q.norm()
        if n > 1e-6:
            return q / n


def random_invertible(rng: random.Random, min_det: float = 0.3) -> MatH2:
    while True:
        m = MatH2(*(random_quaternion(rng) for _ in range(4)))
        if qmat.det(m) > min_det:
            return m


def random_sigma(rng: random.Random, min_det: float = 0.3) -> MatH2:
    return qmat.normalize_to_sigma(random_invertible(rng, min_det))


def random_elliptic_entry(rng: random.Random, angle: float) -> Quaternion:
    """Unit-norm quaternion with argument ``angle`` and random axis."""
    axis = random_unit_imaginary(rng)
    return Quaternion(math.cos(angle)) + axis * math.sin(angle)


def near_sixth_turn_pairs(rng: random.Random, count: int):
    """Seeded elliptic pairs near jss's equality: angle sum pi/3 + delta,
    T rotating about a random imaginary axis, and S = [[1, b], [c, 1 + bc]]
    with small b, c."""
    for _ in range(count):
        half = (math.pi / 3 + rng.uniform(-2e-8, 8e-8)) / 2
        axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
        scale = math.sin(half) / math.sqrt(sum(x * x for x in axis))
        b, c = rng.uniform(1e-6, 2e-5), rng.uniform(1e-6, 2e-5)
        yield (MatH2(Quaternion(1.0), Quaternion(b), Quaternion(c), Quaternion(1 + b * c)),
               qmat.diagonal(Quaternion(math.cos(half), *(x * scale for x in axis)),
                             Quaternion(math.cos(half), *(-x * scale for x in axis))))


def mul_oracle(p: Quaternion, q: Quaternion) -> Quaternion:
    """Quaternion product via the complex-pair route (z1 + w1 j)(z2 + w2 j)."""
    z1, w1 = complex(p.w, p.x), complex(p.y, p.z)
    z2, w2 = complex(q.w, q.x), complex(q.y, q.z)
    z = z1 * z2 - w1 * w2.conjugate()
    w = z1 * w2 + w1 * z2.conjugate()
    return Quaternion(z.real, z.imag, w.real, w.imag)


def check_report_invariants(report, extremal_tol: float = 1e-7) -> None:
    """Assert the verdict/margin contract every report must satisfy."""
    from qmobius.ineq import Verdict

    assert abs(report.margin - (report.lhs - report.threshold)) <= 1e-15 * (
        1.0 + abs(report.lhs) + abs(report.threshold))
    if report.verdict is Verdict.OBSTRUCTION:
        assert report.preconditions_met
        assert report.margin < -extremal_tol / 2
    if report.verdict is Verdict.EXTREMAL:
        assert report.preconditions_met
        assert abs(report.margin) <= extremal_tol
    if not report.preconditions_met:
        assert report.verdict is Verdict.INCONCLUSIVE
