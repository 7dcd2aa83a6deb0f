import importlib
import json
import math
import pkgutil
import random
import reprlib
import struct
from math import isfinite

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmobius.quat import Quaternion, ZERO, ONE, I, J
import qmobius
from qmobius import dynamics, ineq, moebius, qmat, quat
from qmobius.qmat import MatH2, diagonal, identity
from conftest import (displacement, isclose, random_invertible, random_sigma,
                      random_quaternion, real_matrix)


# --- alpha / det -----------------------------------------------------------

def test_alpha_examples():
    assert qmat.alpha(identity()) == 1.0
    assert qmat.alpha(diagonal(I, J)) == 1.0
    # all real: 4 + 1 - 2 * Re(1*1*2*1) = 1
    assert qmat.alpha(real_matrix(1, 1, 1, 2)) == pytest.approx(1.0, abs=1e-15)


def test_det_examples():
    assert qmat.det(diagonal(Quaternion(2), Quaternion(0.5))) == pytest.approx(1.0)
    # a = 0 forces the alpha route
    assert qmat.det(real_matrix(0, 1, 1, 0)) == pytest.approx(1.0)


def test_det_multiplicative():
    rng = random.Random(201)
    for _ in range(200):
        m, n = random_invertible(rng), random_invertible(rng)
        assert abs(qmat.det(m @ n) - qmat.det(m) * qmat.det(n)) < 1e-9


def test_lemma_triple_equality():
    rng = random.Random(202)
    for _ in range(300):
        m = random_sigma(rng)
        if m.a.norm() <= 0.1:
            continue
        d = qmat.det(m)
        explicit = (m.a * m.d - m.a * m.c * m.a.inverse() * m.b).norm()
        sigma, _ = qmat.parker_short(m)
        assert abs(d - explicit) < 1e-9
        assert abs(d - sigma.norm()) < 1e-9


# --- multiplication --------------------------------------------------------

def test_mul_examples():
    m = real_matrix(2, -1, 0.5, 3)
    assert m @ identity() == m
    prod = real_matrix(1, 0, 1, 1) @ MatH2(ONE, J, ZERO, ONE)
    assert prod == MatH2(ONE, J, ONE, Quaternion(1, 0, 1, 0))


# --- Kellerhals factors, tilde values, inverse ------------------------------

def test_tilde_identity_matrix():
    t = qmat.tilde_set(identity())
    assert t.a_t == ONE and t.d_t == ONE
    assert t.b_t == ZERO and t.c_t == ZERO


def test_tilde_real_example():
    m = real_matrix(1, 1, 1, 2)
    l11, l12, l21, l22 = qmat.l_values(m)
    assert isclose(l11, ONE, 1e-15)
    t = qmat.tilde_set(m)
    assert isclose(t.d_t, Quaternion(2), 1e-15)
    # real case reduces to the classical adjugate
    assert all(isclose(p, q, 1e-15) for p, q in
               zip(qmat.inverse(m).entries(), real_matrix(2, -1, -1, 1).entries()))


def test_tilde_zero_entry_fallbacks():
    m = real_matrix(0, 1, 1, 0)   # a = d = 0
    inv = qmat.inverse(m)
    assert all(isclose(p, q, 1e-15) for p, q in zip(inv.entries(), m.entries()))
    prod = m @ inv
    assert isclose(prod.a, ONE, 1e-12) and isclose(prod.d, ONE, 1e-12)


def test_factor_norms_equal_det():
    rng = random.Random(203)
    for _ in range(200):
        m = random_invertible(rng)
        d = qmat.det(m)
        for value in (*qmat.l_values(m), *qmat.r_values(m)):
            assert abs(value.norm() - d) < 1e-9


def test_kellerhals_sixteen_identities():
    rng = random.Random(204)
    for _ in range(200):
        m = random_invertible(rng)
        a, b, c, d = m.entries()
        t = qmat.tilde_set(m)
        products_one = [
            a * t.d_s - b * t.c_s, d * t.a_s - c * t.b_s,
            t.d_t * a - t.b_t * c, t.a_t * d - t.c_t * b,
            a * t.d_t - b * t.c_t, d * t.a_t - c * t.b_t,
            t.d_s * a - t.b_s * c, t.a_s * d - t.c_s * b,
        ]
        for value in products_one:
            assert (value - ONE).norm() < 1e-9
        balanced = [
            (a * t.b_t, b * t.a_t), (c * t.d_t, d * t.c_t),
            (t.a_t * c, t.c_t * a), (t.b_t * d, t.d_t * b),
            (a * t.b_s, b * t.a_s), (c * t.d_s, d * t.c_s),
            (t.a_s * c, t.c_s * a), (t.b_s * d, t.d_s * b),
        ]
        for left, right in balanced:
            assert (left - right).norm() < 1e-9


def test_left_and_right_kellerhals_routes_agree():
    rng = random.Random(7)
    for _ in range(500):
        t = qmat.tilde_set(random_sigma(rng))
        for x in "abcd":
            left, right = getattr(t, f"{x}_t"), getattr(t, f"{x}_s")
            assert (left - right).norm() <= 1e-12 * max(1.0, right.norm())


def test_inverse_round_trip_and_routes_agree():
    rng = random.Random(205)
    for _ in range(200):
        m = random_sigma(rng)
        inv = qmat.inverse(m)
        prod = m @ inv
        dev = max((prod.a - ONE).norm(), prod.b.norm(),
                  prod.c.norm(), (prod.d - ONE).norm())
        assert dev < 1e-9
        inv_r = qmat.inverse_r(m)
        assert max((p - q).norm() for p, q in
                   zip(inv.entries(), inv_r.entries())) < 1e-9


def test_inverse_identity_and_singular():
    assert qmat.inverse(identity()) == identity()
    with pytest.raises(ValueError):
        qmat.inverse(real_matrix(1, 1, 1, 1))
    with pytest.raises(ValueError):
        qmat.tilde_set(MatH2(ZERO, ZERO, ZERO, ZERO))


def test_closed_form_inverse_matches_right_route_oracle():
    # exact-zero and sub-NONZERO_TOL entries: the closed form must put exact
    # zeros where the Kellerhals route does, and keep tiny entries tiny
    rng = random.Random(215)
    checked = 0
    while checked < 400:
        entries = [random_quaternion(rng) for _ in range(4)]
        for idx in rng.sample(range(4), rng.choice((0, 1, 2))):
            entries[idx] = ZERO if rng.random() < 0.5 else random_quaternion(rng, 1e-13)
        m = MatH2(*entries)
        if qmat.det(m) < 0.1:
            continue
        checked += 1
        inv, oracle = qmat.inverse(m), qmat.inverse_r(m)
        assert ([e == ZERO for e in inv.entries()]
                == [e == ZERO for e in oracle.entries()])
        dev = max((p - q).norm() for p, q in zip(inv.entries(), oracle.entries()))
        assert dev <= 1e-12 * oracle.max_entry_norm()


def test_inverse_uses_no_kellerhals_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("inverse must not go through the Kellerhals routes")

    for name in ("tilde_set", "l_values", "r_values"):
        monkeypatch.setattr(qmat, name, forbidden)
    m = random_sigma(random.Random(216))
    prod = m @ qmat.inverse(m)
    assert isclose(prod.a, ONE, 1e-12) and isclose(prod.d, ONE, 1e-12)


def test_inverse_rejects_non_finite_determinant():
    huge = diagonal(Quaternion(1e170), Quaternion(1e170))
    # alpha = inf - inf: the overflow must not read as a singular matrix
    overflow = real_matrix(1e200, 1e200, 1e200, 1)
    calls = [(qmat.inverse, huge)] + [
        (fn, overflow) for fn in (qmat.inverse, qmat.tilde_set, qmat.inverse_r,
                                  qmat.normalize_to_sigma,
                                  lambda m: moebius.apply(m, Quaternion(0.5)))]
    for fn, m in calls:
        with pytest.raises(ValueError, match="not finite") as info:
            fn(m)
        assert not isinstance(info.value, qmat.SingularMatrixError)


_coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_quaternions = st.builds(Quaternion, _coord, _coord, _coord, _coord)
_matrices = st.builds(MatH2, _quaternions, _quaternions, _quaternions, _quaternions)


def _identity_deviation(m: MatH2) -> float:
    return max((m.a - ONE).norm(), m.b.norm(), m.c.norm(), (m.d - ONE).norm())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices)
@example(MatH2(ZERO, Quaternion(0, 0, 0, 1), Quaternion(0, 0, 0, 1),
               Quaternion(0, 0, 0, 1e-12)))     # |d| = NONZERO_TOL, a tiny entry
def test_property_inverse_is_two_sided(m):
    assume(qmat.det(m) > 0.1)
    inv = qmat.inverse(m)
    # rounding in each product entry scales with |m| |m^-1|
    scale = m.max_entry_norm() * inv.max_entry_norm()
    assert _identity_deviation(inv @ m) <= 1e-13 * (1.0 + scale)
    assert _identity_deviation(m @ inv) <= 1e-13 * (1.0 + scale)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_matrices, _matrices)
def test_property_det_is_multiplicative(m1, m2):
    d1, d2 = qmat.det(m1), qmat.det(m2)
    assume(d1 > 0.1 and d2 > 0.1)
    # alpha is quartic in the entries, and det = sqrt(alpha) divides its
    # rounding by 2 det
    scale = (m1.max_entry_norm() * m2.max_entry_norm()) ** 4 / (d1 * d2)
    assert abs(qmat.det(m1 @ m2) - d1 * d2) <= 1e-13 * scale


# --- coordinate kernels against the Quaternion formulas --------------------
#
# MatH2 @, alpha and inverse compute on coordinates. These references are
# the same formulas composed from Quaternion arithmetic; the kernels must
# agree with them bit for bit, error types included. So must the kernels
# that skip part of a result: the conjugation given alpha (as iterate runs
# it), and the commutator's trace with the two alphas jh gates on. So must
# the coordinate reads of the test path: Parker-Short, the Moebius action
# that wat measures, and the eta-normalized oracle of jg.

def _reference_matmul(m: MatH2, n: MatH2) -> MatH2:
    return MatH2(m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
                 m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def _reference_alpha(m: MatH2) -> float:
    a, b, c, d = m.entries()
    value = (a.norm2() * d.norm2() + b.norm2() * c.norm2()
             - 2.0 * (a * c.conj() * d * b.conj()).re)
    return 0.0 if value < 0.0 else value


def _reference_inverse(m: MatH2) -> MatH2:
    value = _reference_alpha(m)
    if math.sqrt(value) <= qmat.NONZERO_TOL:
        raise qmat.SingularMatrixError("singular matrix")
    if not math.isfinite(value):
        raise ValueError("determinant is not finite")
    s = 1.0 / value
    a, b, c, d = m.entries()
    ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()
    return MatH2((ac * d.norm2() - cc * d * bc) * s, (cc * b.norm2() - ac * b * dc) * s,
                 (bc * c.norm2() - dc * c * ac) * s, (dc * a.norm2() - bc * a * cc) * s)


def _reference_conjugate(m: MatH2, t: MatH2) -> MatH2:
    return _reference_matmul(_reference_matmul(m, t), _reference_inverse(m))


def _reference_commutator(a: MatH2, b: MatH2) -> MatH2:
    return _reference_matmul(_reference_conjugate(a, b), _reference_inverse(b))


def _reference_commutator_trace(a: MatH2, b: MatH2) -> float:
    comm = _reference_commutator(a, b)      # a's errors before b's
    return comm.a.re + comm.d.re


def _commutator_trace(a: MatH2, b: MatH2) -> float:
    # the jh path: n2 and alpha of both, then the kernel checks a before b
    a, b = a._coords, b._coords
    na, nb = qmat._norms2(a), qmat._norms2(b)
    return qmat._commutator_trace(a, b, na, nb, qmat._alpha(a, na), qmat._alpha(b, nb))


def _conjugate_given_alpha(m: MatH2, t: MatH2) -> MatH2:
    return qmat._from_coords(qmat._conjugate(m._coords, t._coords,
                                             qmat._norms2(m._coords),
                                             qmat.nonsingular_alpha(m)))


def _reference_tau0_t0_upper(s: MatH2, t: MatH2) -> tuple:
    if s.c.norm() <= qmat.NONZERO_TOL:
        raise ValueError("S and T share a fixed point")
    lam, eta, mu = t.a, t.b, t.d
    cinv = s.c.inverse()
    cinv_d = cinv * s.d
    a_cinv = s.a * cinv
    return (lam * (-cinv_d) + eta + cinv_d * mu, lam * a_cinv + eta - a_cinv * mu)


def _reference_tau0_t0_lower(s: MatH2, t: MatH2) -> tuple:
    if s.b.norm() <= qmat.NONZERO_TOL:
        raise ValueError("S and T share a fixed point")
    lam, eta, mu = t.a, t.c, t.d
    binv = s.b.inverse()
    binv_a = binv * s.a
    d_binv = s.d * binv
    return (mu * (-binv_a) + eta + binv_a * lam, mu * d_binv + eta - d_binv * lam)


def _reference_parker_short(m: MatH2) -> tuple:
    a, b, c, d = m.entries()
    if c.norm() > qmat.NONZERO_TOL:
        core = c * a * c.inverse()
        return (core * d - c * b, core + d)
    if b.norm() > qmat.NONZERO_TOL:
        core = b * d * b.inverse()
        return (core * a, core + a)
    diff = d - a
    if diff.norm() > qmat.NONZERO_TOL:
        core = diff * a * diff.inverse()
        return (core * d, core + d)
    return (a * a.conj(), a + a.conj())


def _reference_apply(m: MatH2, z):
    qmat.nonsingular_alpha(m)
    fixes_infinity = m.c.norm() <= qmat.NONZERO_TOL
    if z is moebius.INFINITY:
        return moebius.INFINITY if fixes_infinity else m.a * m.c.inverse()
    denom = m.c * z + m.d
    pole_tol = 0.0 if fixes_infinity else qmat.NONZERO_TOL * (1.0 + z.norm())
    if denom.norm() <= pole_tol:
        return moebius.INFINITY
    return (m.a * z + m.b) * denom.inverse()


def _reference_eta_normalized(s: MatH2, t: MatH2, tol: float = 1e-9) -> ineq.TestReport:
    eta = t.b
    if eta.norm() <= tol:
        raise ValueError("eta-normalized test requires eta != 0")
    base = ineq.jg_test(s, t, tol=tol)
    diag = base.diagnostics
    eta_norm = diag["eta_norm"]
    s_prime = diag["S_value"] / (eta_norm * eta_norm)
    diag["S_prime"] = s_prime
    if "c_zero" in diag:
        lhs = 0.0
    else:
        tau0, t0 = _reference_tau0_t0_upper(s, t)
        eta_inv = eta.inverse()
        tau0p = tau0 * eta_inv
        t0p = t0 * eta_inv
        diag["tau0_prime_norm"] = tau0p.norm()
        diag["t0_prime_norm"] = t0p.norm()
        lhs = s.c.norm() * math.sqrt(tau0p.norm() * t0p.norm())
    disc = 1.0 - 4.0 * math.sqrt(2.0) * eta_norm * eta_norm * s_prime
    threshold = (1.0 + math.sqrt(disc if disc > 0.0 else 0.0)) / (2.0 * eta_norm)
    return ineq._inequality_report("eta_normalized", lhs, threshold,
                                   base.preconditions_met, diag)


def _lower_reading(s: MatH2, t: MatH2) -> tuple:
    """tau0, t0 of ``qmat._displacement`` on the lower side, or the
    reference's ValueError where that reading has none."""
    _, tau0, t0, *_ = displacement(s, t, "lower")
    if tau0 is None:
        raise ValueError("S and T share a fixed point")
    return (Quaternion(*tau0), Quaternion(*t0))


def _outcome(fn, *args):
    """The result's IEEE bit patterns (INFINITY as itself), or the type of
    the ValueError raised."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc)
    if isinstance(result, float):
        return struct.pack("d", result)
    if result is moebius.INFINITY:
        return result
    if isinstance(result, ineq.TestReport):      # repr keeps every float bit
        return repr(result.to_dict())
    if isinstance(result, Quaternion):
        result = (result,)
    entries = result.entries() if isinstance(result, MatH2) else result
    return b"".join(struct.pack("4d", *e.as_list()) if isinstance(e, Quaternion)
                    else struct.pack("d", e) for e in entries)


_magnitude = st.floats(1e-14, 1e6)
_kernel_coord = st.one_of(_magnitude, _magnitude.map(lambda x: -x),
                          st.sampled_from([0.0, -0.0]))
# norm below NONZERO_TOL: tau0/t0 treat the entry as zero, while inverse
# keeps it in its closed form
_tiny_coord = st.floats(-4e-13, 4e-13)
_kernel_entry = st.one_of(st.builds(Quaternion, *[_kernel_coord] * 4),
                          st.builds(Quaternion, *[_tiny_coord] * 4),
                          st.just(ZERO))
_kernel_matrix = st.builds(MatH2, *[_kernel_entry] * 4)
_q_tiny = Quaternion(3e-13, -2e-13, 0.0, 1e-13)
_q_mixed = Quaternion(0.5, -1.5, 2.0, -0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_kernel_matrix)
@example(real_matrix(1, 1, 1, 1))                              # singular
@example(diagonal(Quaternion(1e170), Quaternion(1e170)))       # alpha = inf
@example(real_matrix(1e200, 1e200, 1e200, 1))                  # inf - inf
# an entry below NONZERO_TOL: c of m (upper tau0/t0 undefined, a tiny
# inverse entry), then b (lower tau0/t0 undefined)
@example(MatH2(_q_mixed, Quaternion(2.0, 0.0, -1.0, 3.0), _q_tiny, Quaternion(1.0, 1.0)))
@example(MatH2(Quaternion(1.0, 1.0), _q_tiny, Quaternion(-2.0, 0.0, 1.0, 0.5), _q_mixed))
# tau0 has a zero coordinate whose sign -(lam v) would flip against lam (-v)
@example(MatH2(Quaternion(-1.0, 0.0, 1.0, 2.0), Quaternion(1.0, 1.0, -0.0, 1.0),
               Quaternion(-0.0, 0.0, 2.0, 1.0), ZERO))
def test_property_kernels_are_bitwise_the_quaternion_formulas(m):
    # the second factor reuses m's draws with its entries in other places,
    # which keeps alpha; doubled (exactly), it has 16 times m's alpha
    n = MatH2(m.d, m.c, m.b, m.a)
    upper = MatH2(n.a, n.b, ZERO, n.d)
    for kernel, reference, args in (
            (MatH2.__matmul__, _reference_matmul, (m, n)),
            (MatH2.__matmul__, _reference_matmul, (n, m)),
            (qmat.alpha, _reference_alpha, (m,)),
            (qmat.inverse, _reference_inverse, (m,)),
            (_conjugate_given_alpha, _reference_conjugate, (m, n)),
            (_conjugate_given_alpha, _reference_conjugate, (n, m)),
            (qmat.commutator, _reference_commutator, (m, n)),
            (_commutator_trace, _reference_commutator_trace, (m, n)),
            (_commutator_trace, _reference_commutator_trace, (n, m)),
            (_commutator_trace, _reference_commutator_trace, (m, n.scaled(2.0))),
            (ineq.tau0_t0_upper, _reference_tau0_t0_upper, (m, n)),
            (ineq.eta_normalized_test, _reference_eta_normalized, (m, n)),
            (ineq.eta_normalized_test, _reference_eta_normalized, (m, upper))):
        assert _outcome(kernel, *args) == _outcome(reference, *args)
    # Parker-Short: c != 0; c = 0, b != 0; b = c = 0, a != d; b = c = 0, a = d
    for matrix in (m, MatH2(m.a, m.b, ZERO, m.d), MatH2(m.a, ZERO, ZERO, m.d),
                   MatH2(m.a, ZERO, ZERO, m.a)):
        assert (_outcome(qmat.parker_short, matrix)
                == _outcome(_reference_parker_short, matrix))
    # apply: a finite point, infinity, the pole -c^-1 d, and c = 0
    c_zero = MatH2(m.a, m.b, ZERO, m.d)
    cases = [(m, n.a), (m, moebius.INFINITY), (c_zero, n.a), (c_zero, moebius.INFINITY)]
    if m.c.norm() > qmat.NONZERO_TOL:
        cases.append((m, -(m.c.inverse() * m.d)))
    for matrix, z in cases:
        assert _outcome(moebius.apply, matrix, z) == _outcome(_reference_apply, matrix, z)
    # the lower formulas are the lower reading of the pair
    assert (_outcome(_lower_reading, m, n)
            == _outcome(_reference_tau0_t0_lower, m, n))


def test_each_entry_norm_is_read_once_per_step_and_per_jh(monkeypatch):
    # the matrix kernels take the squared entry norms from their caller,
    # which computes them once: an iterate step reads |e|^2 of each entry e
    # of S_n once (alpha, the entry norms, the coupling and the inverse all
    # share it), and a jh evaluation each entry of A and of B once (alphas,
    # inverses, T's shape, Parker-Short and the coupling); every selector
    # reads S's entries once, in the pair gate, which hands its reading on
    norm2, reads = quat._norm2, []

    def counted(p):
        reads.append(p)
        return norm2(p)

    bound = []
    for info in pkgutil.iter_modules(qmobius.__path__, "qmobius."):
        module = importlib.import_module(info.name)
        if getattr(module, "_norm2", None) is norm2:
            monkeypatch.setattr(module, "_norm2", counted)
            bound.append(info.name)
    assert {"qmobius.quat", "qmobius.qmat", "qmobius.ineq"} <= set(bound)

    def reads_of(m: MatH2) -> list[int]:
        return [sum(p is entry for p in reads) for entry in m._coords]

    # from_dict gives every entry a tuple of its own, zeros included
    s = MatH2.from_dict({"a": [1, 0.5, 0, 0], "b": [0.25, 0, 1, 0],
                         "c": [0.5, 0, 0, -0.5], "d": [2, 0, 0.5, 0]})
    lam, eta, mu = [0.6, 0.8, 0, 0], [0, 0, 1, 0], [0.6, 0, -0.8, 0]
    zero = [0, 0, 0, 0]
    for mode, t in (("diagonal", {"a": lam, "b": zero, "c": zero, "d": mu}),
                    ("upper", {"a": lam, "b": eta, "c": zero, "d": mu}),
                    ("lower", {"a": lam, "b": zero, "c": eta, "d": mu})):
        reads.clear()
        trace = dynamics.iterate(s, MatH2.from_dict(t), 1, mode)
        assert [reads_of(step.s) for step in trace.steps] == [[1] * 4] * 2, mode
    a = MatH2.from_dict({"a": [2, 0, 0, 0], "b": zero, "c": zero, "d": [0.5, 0, 0, 0]})
    reads.clear()
    ineq.TESTS["jh"](s, a, 1e-9)
    assert reads_of(a) == reads_of(s) == [1] * 4
    # read twice: jlt's c for lhs_printed, extreme's a and d for ad_deviation
    twice = {"jlt": [1, 1, 2, 1], "extreme": [2, 1, 1, 2]}
    upper = MatH2.from_dict({"a": lam, "b": eta, "c": zero, "d": mu})
    for name, test in ineq.TESTS.items():
        reads.clear()
        test(s, upper, 1e-9)
        assert reads_of(s) == twice.get(name, [1] * 4), name


# --- invariants ------------------------------------------------------------

def test_foreman_examples():
    beta, gamma, delta = qmat.foreman_invariants(diagonal(Quaternion(2), Quaternion(0.5)))
    assert (beta, gamma, delta) == pytest.approx((2.5, 8.25, 2.5))
    assert qmat.foreman_invariants(identity()) == pytest.approx((2.0, 6.0, 2.0))
    for k in (2.0, 3.5, 0.25):
        _, _, delta = qmat.foreman_invariants(diagonal(Quaternion(k), Quaternion(1 / k)))
        assert delta == pytest.approx(k + 1 / k, abs=1e-12)


def test_gamma_alternative_form_oracle():
    rng = random.Random(206)
    for _ in range(100):
        m = random_sigma(rng)
        a, b, c, d = m.entries()
        expected = (a.norm2() + d.norm2() + 4 * a.re * d.re - 2 * (b * c).re)
        _, gamma, _ = qmat.foreman_invariants(m)
        assert gamma == pytest.approx(expected, abs=1e-10)


def test_foreman_conjugacy_invariance():
    rng = random.Random(207)
    for _ in range(150):
        m = random_sigma(rng)
        g = random_sigma(rng)
        conj = g @ m @ qmat.inverse(g)
        for x, y in zip(qmat.foreman_invariants(m), qmat.foreman_invariants(conj)):
            assert abs(x - y) < 1e-7


def test_parker_short_examples():
    sigma, tau = qmat.parker_short(diagonal(Quaternion(2), Quaternion(0.5)))
    assert isclose(sigma, ONE, 1e-12)
    assert isclose(tau, Quaternion(2.5), 1e-12)
    sigma, tau = qmat.parker_short(identity())
    assert sigma == ONE and tau == Quaternion(2)


def test_parker_short_sigma_norm_is_det():
    rng = random.Random(208)
    for _ in range(200):
        m = random_sigma(rng)
        if m.c.norm() <= 1e-6:
            continue
        sigma, _ = qmat.parker_short(m)
        assert abs(sigma.norm() - 1.0) < 1e-9


def test_parker_short_all_branches():
    rng = random.Random(209)
    # c = 0, b != 0: sigma = b d b^-1 a has norm |a||d| = det
    m = MatH2(Quaternion(2), random_quaternion(rng), ZERO, Quaternion(0.5))
    sigma, tau = qmat.parker_short(m)
    assert abs(sigma.norm() - 1.0) < 1e-12
    # b = c = 0, a != d
    m = diagonal(Quaternion(0, 2), Quaternion(0, 0, 0.5))
    sigma, _ = qmat.parker_short(m)
    assert abs(sigma.norm() - 1.0) < 1e-12
    # b = c = 0, a = d: sigma = a conj(a) = |a|^2
    m = diagonal(I, I)
    sigma, tau = qmat.parker_short(m)
    assert isclose(sigma, ONE, 1e-15)
    assert isclose(tau, ZERO, 1e-15)   # i + conj(i)


def test_invariant_set_consistency():
    rng = random.Random(210)
    for _ in range(100):
        m = random_sigma(rng)
        inv = qmat.invariant_set(m)
        assert abs(inv.sigma.norm() ** 2 - inv.alpha) < 1e-9
        assert abs(inv.alpha - 1.0) < 1e-9


# --- normalization, commutator ---------------------------------------------

def test_normalize_to_sigma():
    assert all(isclose(p, q, 1e-15) for p, q in
               zip(qmat.normalize_to_sigma(identity().scaled(2.0)).entries(),
                   identity().entries()))
    rng = random.Random(211)
    for _ in range(100):
        m = random_invertible(rng)
        normalized = qmat.normalize_to_sigma(m)
        assert abs(qmat.det(normalized) - 1.0) < 1e-9
        again = qmat.normalize_to_sigma(normalized)
        assert max((p - q).norm() for p, q in
                   zip(again.entries(), normalized.entries())) < 1e-12
    with pytest.raises(ValueError):
        qmat.normalize_to_sigma(MatH2(ZERO, ZERO, ZERO, ZERO))


def test_commutator_trivial_cases():
    rng = random.Random(212)
    m = random_sigma(rng)
    for other in (m, identity()):
        comm = qmat.commutator(m, other)
        assert (comm.a - ONE).norm() < 1e-12 and (comm.d - ONE).norm() < 1e-12
        assert comm.b.norm() < 1e-12 and comm.c.norm() < 1e-12


def test_commutator_trace_checks_a_before_b():
    singular = real_matrix(1, 1, 1, 1)
    overflow = real_matrix(1e200, 1e200, 1e200, 1)
    for a, b, error in ((singular, overflow, qmat.SingularMatrixError),
                        (overflow, singular, ValueError)):
        for fn in (qmat.commutator, _commutator_trace):
            with pytest.raises(ValueError) as info:
                fn(a, b)
            assert type(info.value) is error


def test_commutator_delta_identity():
    # delta of [A, B] - 2 = -(k - 1/k)^2 Re(b conj(sigma_B) c) for A = diag(k, 1/k)
    rng = random.Random(213)
    k = 2.0
    a = diagonal(Quaternion(k), Quaternion(1 / k))
    for _ in range(100):
        b = random_sigma(rng)
        if b.c.norm() < 0.05:
            continue
        _, _, delta_comm = qmat.foreman_invariants(qmat.commutator(a, b))
        sigma_b, _ = qmat.parker_short(b)
        predicted = 2.0 - (k - 1 / k) ** 2 * (b.b * sigma_b.conj() * b.c).re
        assert abs(delta_comm - predicted) < 1e-8


def test_matrix_json_round_trip():
    rng = random.Random(214)
    m = random_sigma(rng)
    assert MatH2.from_dict(m.to_dict()) == m
    with pytest.raises(ValueError):
        MatH2.from_dict({"a": [1, 0, 0, 0]})


def _entry_bits(quaternions) -> list[bytes]:
    return [struct.pack("4d", *q.as_list()) for q in quaternions]


def test_coordinates_survive_construction_and_json_bit_for_bit():
    rng = random.Random(215)
    entries = [random_sigma(rng).entries() for _ in range(30)]
    entries.append((Quaternion(-0.0, 1.5, -0.0, 0.0), Quaternion(-0.0, -0.0, -0.0, -0.0),
                    ZERO, Quaternion(1.0, -0.0, -2.5e-300, -0.0)))
    for a, b, c, d in entries:
        m = MatH2(a, b, c, d)
        assert (m.a, m.b, m.c, m.d) == (a, b, c, d)
        assert _entry_bits(m.entries()) == _entry_bits((a, b, c, d))
        for obj in (m.to_dict(), json.loads(json.dumps(m.to_dict()))):
            decoded = MatH2.from_dict(obj)
            assert decoded == m and _entry_bits(decoded.entries()) == _entry_bits((a, b, c, d))


# The input decoder as it was while MatH2 held four Quaternion objects,
# frozen here: ``Quaternion.from_list`` and ``MatH2.from_dict`` verbatim,
# but for their names, the unused ``cls`` and from_dict returning the four
# entries instead of a matrix. The one-pass coordinate check must accept
# and reject the same objects, with the same message and the same bits.

_REAL = (int, float)


def _frozen_from_list(coords) -> Quaternion:
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValueError("quaternion encoding must be a list of 4 coordinates")
    w, x, y, z = coords
    try:
        if (type(w) in _REAL and type(x) in _REAL
                and type(y) in _REAL and type(z) in _REAL):
            w, x, y, z = float(w), float(x), float(y), float(z)
            # each one: a sum of finite values can overflow
            if isfinite(w) and isfinite(x) and isfinite(y) and isfinite(z):
                return Quaternion(w, x, y, z)
    except OverflowError:           # an int beyond float range
        pass
    raise ValueError("quaternion coordinates must be finite numbers, "
                     f"got {reprlib.repr(coords)}")


def _frozen_from_dict(obj) -> tuple[Quaternion, ...]:
    if not isinstance(obj, dict) or not obj.keys() >= {"a", "b", "c", "d"}:
        raise ValueError("matrix must be an object with entries a, b, c, d")
    return tuple(map(_frozen_from_list, (obj["a"], obj["b"], obj["c"], obj["d"])))


def _decoded_matrix(entries):
    """The coordinates' types and bits, or the ValueError message."""
    try:
        return [(type(x), struct.pack("d", x)) for q in entries() for x in q.as_list()]
    except ValueError as exc:
        return str(exc)


_any_coord = st.one_of(st.integers(), st.floats(), st.just(True), st.text(max_size=2),
                       st.sampled_from((10 ** 400, math.nan, math.inf, -math.inf)))
_finite_coord = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
_input_entry = st.one_of(
    st.lists(_finite_coord, min_size=4, max_size=4),
    st.lists(_finite_coord, min_size=4, max_size=4).map(tuple),
    st.lists(_any_coord, min_size=3, max_size=5),
    st.lists(_any_coord, min_size=4, max_size=4).map(tuple),
    _any_coord)
_input_matrix = st.one_of(
    st.fixed_dictionaries({key: _input_entry for key in "abcd"}),
    st.dictionaries(st.sampled_from("abcde"), _input_entry, max_size=5),
    _input_entry, st.none())
_UNIT = [1, 0, 0, 0]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_input_matrix)
@example({"a": [2, -1, 0, 3], "b": [0, 0, 0, 0], "c": (0, 1, 0, 0), "d": _UNIT})
@example({"a": [-0.0, 5e-324, 1e308, 0.5], "b": _UNIT, "c": _UNIT, "d": _UNIT, "e": 0})
@example({"a": _UNIT, "b": [0, True, 0, 0], "c": _UNIT, "d": _UNIT})
@example({"a": _UNIT, "b": _UNIT, "c": [0, 0, "1", 0], "d": _UNIT})
@example({"a": _UNIT, "b": _UNIT, "c": _UNIT, "d": [10 ** 400, 0, 0, 0]})
@example({"a": [math.nan, 0, 0, 0], "b": _UNIT, "c": _UNIT, "d": _UNIT})
@example({"a": _UNIT, "b": (0, math.inf, 0, 0), "c": _UNIT, "d": _UNIT})
@example({"a": _UNIT, "b": _UNIT, "c": [0, 0, -math.inf, 0], "d": _UNIT})
@example({"a": [1, 0, 0], "b": _UNIT, "c": _UNIT, "d": _UNIT})
@example({"a": _UNIT, "b": _UNIT, "c": _UNIT, "d": [1, 0, 0, 0, 0]})
@example({"a": _UNIT, "b": [1, 2, 3], "c": [math.nan, 0, 0, 0], "d": "x"})
@example({"a": _UNIT, "b": _UNIT, "c": _UNIT})
@example([_UNIT, _UNIT, _UNIT, _UNIT])
@example("abcd")
@example(None)
def test_from_dict_matches_its_frozen_oracle(obj):
    assert (_decoded_matrix(lambda: MatH2.from_dict(obj).entries())
            == _decoded_matrix(lambda: _frozen_from_dict(obj)))
