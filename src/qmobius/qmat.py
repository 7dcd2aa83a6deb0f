"""2x2 quaternionic matrices and their conjugacy invariants.

Implements the Dieudonne determinant, the Kellerhals factor/inverse
machinery, Foreman's conjugacy invariants (beta, gamma, delta) and the
Parker-Short quantities (sigma, tau). The group of determinant-1 matrices
(called Sigma throughout) acts by isometries on hyperbolic 5-space; its
boundary action lives in :mod:`qmobius.moebius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quat import Quaternion, ZERO, ONE, DEFAULT_TOL

# Norm threshold under which an entry is treated as zero when dispatching
# between algebraic case formulas. Dispatch must be deterministic under
# rounding, hence a hard cutoff rather than a relative test.
NONZERO_TOL = 1e-12


class SingularMatrixError(ValueError):
    """A computation needed an invertible matrix and got a singular one."""


@dataclass(frozen=True, slots=True)
class MatH2:
    """Row-major 2x2 matrix [[a, b], [c, d]] over the quaternions."""

    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def __matmul__(self, other: "MatH2") -> "MatH2":
        # entrywise sums of ordered products; factor order matters
        return MatH2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.a, self.b, self.c, self.d)

    def max_entry_norm(self) -> float:
        return max(self.a.norm(), self.b.norm(), self.c.norm(), self.d.norm())

    def scaled(self, s: float) -> "MatH2":
        """Entrywise scaling by a real scalar (central, so side-free)."""
        return MatH2(self.a * s, self.b * s, self.c * s, self.d * s)

    def to_dict(self) -> dict:
        return {
            "a": self.a.as_list(),
            "b": self.b.as_list(),
            "c": self.c.as_list(),
            "d": self.d.as_list(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MatH2":
        try:
            return cls(*(Quaternion.from_list(obj[key]) for key in "abcd"))
        except KeyError as exc:
            raise ValueError(f"matrix encoding missing entry {exc}") from exc


def identity() -> MatH2:
    return MatH2(ONE, ZERO, ZERO, ONE)


def diagonal(lam: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, ZERO, ZERO, mu)


def upper_triangular(lam: Quaternion, eta: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, eta, ZERO, mu)


def lower_triangular(lam: Quaternion, eta: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, ZERO, eta, mu)


def alpha(m: MatH2) -> float:
    """|a|^2 |d|^2 + |b|^2 |c|^2 - 2 Re(a conj(c) d conj(b)), clamped at 0.

    Non-negative in exact arithmetic (it is the squared Dieudonne
    determinant); tiny negative rounding residue is clamped away.
    """
    a, b, c, d = m.entries()
    value = (a.norm2() * d.norm2() + b.norm2() * c.norm2()
             - 2.0 * (a * c.conj() * d * b.conj()).re)
    return value if value > 0.0 else 0.0


def det(m: MatH2) -> float:
    """Dieudonne determinant sqrt(alpha); total, multiplicative, >= 0.

    Coincides with |ad - a c a^-1 b| whenever a != 0; the alpha route is
    used because it needs no inverses.
    """
    return math.sqrt(alpha(m))


def in_sigma(m: MatH2, tol: float = DEFAULT_TOL) -> bool:
    """Membership in Sigma, the determinant-1 group."""
    return abs(det(m) - 1.0) <= tol


def normalize_to_sigma(m: MatH2, tol: float = NONZERO_TOL) -> MatH2:
    """Scale by the positive real 1/sqrt(det) so the result has determinant 1."""
    d = det(m)
    if d <= tol:
        raise SingularMatrixError("singular matrix")
    return m.scaled(1.0 / math.sqrt(d))


def _similarity_or_fallback(outer: Quaternion, inner: Quaternion) -> Quaternion:
    """outer * inner * outer^-1, collapsing to inner when outer ~ 0.

    The degenerate value is the limit along real directions of the outer
    factor; it keeps the factor norms (and hence |l_ij| = |r_ij| = det)
    correct, which is all downstream algebra relies on.
    """
    if outer.norm() <= NONZERO_TOL:
        return inner
    return outer * inner * outer.inverse()


def _inv_similarity_or_fallback(outer: Quaternion, inner: Quaternion) -> Quaternion:
    """outer^-1 * inner * outer, with the same degenerate collapse."""
    if outer.norm() <= NONZERO_TOL:
        return inner
    return outer.inverse() * inner * outer


def l_values(m: MatH2) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """Left Kellerhals factors (l11, l12, l21, l22); each has norm det(m).

    Each formula conjugates by one matrix entry. When that entry vanishes
    the conjugation is collapsed (see ``_similarity_or_fallback``); the
    resulting representative is one valid limit and is documented as an
    implementation choice.
    """
    a, b, c, d = m.entries()
    l11 = d * a - _similarity_or_fallback(d, b) * c
    l12 = _similarity_or_fallback(b, d) * a - b * c
    l21 = _similarity_or_fallback(c, a) * d - c * b
    l22 = a * d - _similarity_or_fallback(a, c) * b
    return (l11, l12, l21, l22)


def r_values(m: MatH2) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """Right Kellerhals factors (r11, r12, r21, r22); each has norm det(m)."""
    a, b, c, d = m.entries()
    r11 = a * d - b * _inv_similarity_or_fallback(d, c)
    r12 = d * _inv_similarity_or_fallback(b, a) - c * b
    r21 = a * _inv_similarity_or_fallback(c, d) - b * c
    r22 = d * a - c * _inv_similarity_or_fallback(a, b)
    return (r11, r12, r21, r22)


@dataclass(frozen=True, slots=True)
class TildeSet:
    """The eight normalized cofactor quantities of an invertible matrix.

    The left family (suffix ``_t``) divides out an l-factor, the right
    family (suffix ``_s``) an r-factor. Both assemble the same inverse
    matrix [[d, -b], [-c, a]]-style, so corresponding members agree; the
    two computation routes are kept separate for cross-checking.
    """

    a_t: Quaternion
    b_t: Quaternion
    c_t: Quaternion
    d_t: Quaternion
    a_s: Quaternion
    b_s: Quaternion
    c_s: Quaternion
    d_s: Quaternion


def tilde_set(m: MatH2, tol: float = NONZERO_TOL) -> TildeSet:
    """Compute all eight tilde quantities of an invertible matrix.

    Each left value is l^-1 times an entry, each right value an entry times
    r^-1. The entry being normalized is also the inner entry of its factor
    formula, so when it vanishes the tilde value is exactly zero and no
    inverse is needed.
    """
    if det(m) <= tol:
        raise SingularMatrixError("singular matrix")
    a, b, c, d = m.entries()
    l11, l12, l21, l22 = l_values(m)
    r11, r12, r21, r22 = r_values(m)

    def left(factor: Quaternion, entry: Quaternion) -> Quaternion:
        return ZERO if entry.norm() <= NONZERO_TOL else factor.inverse() * entry

    def right(entry: Quaternion, factor: Quaternion) -> Quaternion:
        return ZERO if entry.norm() <= NONZERO_TOL else entry * factor.inverse()

    return TildeSet(
        a_t=left(l22, a), b_t=left(l12, b), c_t=left(l21, c), d_t=left(l11, d),
        a_s=right(a, r22), b_s=right(b, r12), c_s=right(c, r21), d_s=right(d, r11),
    )


def inverse(m: MatH2, tol: float = NONZERO_TOL) -> MatH2:
    """Matrix inverse via the left Kellerhals factors.

    The right-factor route is available as :func:`inverse_r`; the two must
    agree and the test suite holds them to that.
    """
    t = tilde_set(m, tol=tol)
    return MatH2(t.d_t, -t.b_t, -t.c_t, t.a_t)


def inverse_r(m: MatH2, tol: float = NONZERO_TOL) -> MatH2:
    """Matrix inverse via the right Kellerhals factors (cross-check route)."""
    t = tilde_set(m, tol=tol)
    return MatH2(t.d_s, -t.b_s, -t.c_s, t.a_s)


def commutator(a: MatH2, b: MatH2, tol: float = NONZERO_TOL) -> MatH2:
    """A B A^-1 B^-1."""
    return a @ b @ inverse(a, tol=tol) @ inverse(b, tol=tol)


def foreman_invariants(m: MatH2) -> tuple[float, float, float]:
    """Foreman's conjugacy invariants (beta, gamma, delta) of a Sigma element.

    beta  = Re[(ad - bc) conj(a) + (da - cb) conj(d)]
          = |d|^2 Re(a) + |a|^2 Re(d) - Re(conj(a) b c) - Re(c b conj(d))
    gamma = |a + d|^2 + 2 Re(ad - bc)
    delta = Re(a + d)

    Only the factor order shown for beta is conjugation invariant; swapping
    the cb product in the last term breaks invariance.
    """
    a, b, c, d = m.entries()
    bc = b * c
    beta = ((a * d - bc) * a.conj() + (d * a - c * b) * d.conj()).re
    gamma = (a + d).norm2() + 2.0 * (a * d - bc).re
    delta = a.re + d.re
    return (beta, gamma, delta)


def parker_short(m: MatH2) -> tuple[Quaternion, Quaternion]:
    """Parker-Short quantities (sigma, tau), with |sigma| = det(m).

    Four-case dispatch on which entries vanish (norm <= NONZERO_TOL):
    c != 0; c = 0, b != 0; b = c = 0 with a != d; and b = c = 0, a = d.
    """
    a, b, c, d = m.entries()
    if c.norm() > NONZERO_TOL:
        core = c * a * c.inverse()
        return (core * d - c * b, core + d)
    if b.norm() > NONZERO_TOL:
        core = b * d * b.inverse()
        return (core * a, core + a)
    diff = d - a
    if diff.norm() > NONZERO_TOL:
        core = diff * a * diff.inverse()
        return (core * d, core + d)
    return (a * a.conj(), a + a.conj())


@dataclass(frozen=True, slots=True)
class InvariantSet:
    """All scalar and quaternionic conjugacy invariants of one matrix."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    sigma: Quaternion
    tau: Quaternion

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "sigma": self.sigma.as_list(),
            "tau": self.tau.as_list(),
        }


def invariant_set(m: MatH2) -> InvariantSet:
    beta, gamma, delta = foreman_invariants(m)
    sigma, tau = parker_short(m)
    return InvariantSet(alpha=alpha(m), beta=beta, gamma=gamma, delta=delta,
                        sigma=sigma, tau=tau)
