"""2x2 quaternionic matrices and their conjugacy invariants.

Implements the Dieudonne determinant, the closed-form inverse, the
Kellerhals factors and tilde quantities (kept as paper quantities and
test oracles), Foreman's conjugacy invariants (beta, gamma, delta) and the
Parker-Short quantities (sigma, tau). The group of determinant-1 matrices
(called Sigma throughout) acts by isometries on hyperbolic 5-space; its
boundary action lives in :mod:`qmobius.moebius`. Two error texts are
written once here: ``NOT_FINITE`` (a result that overflowed) and
``NO_TRIANGLE`` (a T that :func:`shape` reads as full where a triangle is
needed: ``ineq.auto_select`` and ``iterate --mode auto``).

The hot path is coordinate kernels on the entry coordinates a
:class:`MatH2` holds: ``_alpha``, ``_inverse_coords``, ``_conjugate`` (the
step m t m^-1 of ``dynamics.iterate``), ``_commutator_trace`` (the real
trace of :func:`commutator` that ``ineq`` ``jh`` reads, given both
alphas), ``_parker_short``, and the readings of a pair, ``_k_value``
and ``_displacement`` (the coupling entry and tau0/t0 of a triangle). A
matrix kernel takes ``n2``, its four entries' squared norms (``_norms2``),
from its caller, which computes them once. Each kernel is bitwise, errors
included, the ``Quaternion`` formula in its docstring: it calls
:mod:`qmobius.quat` for every quaternion formula, and the matrix ones are
written once here (``_product``, ``_inverse_entry``).
"""

from __future__ import annotations

import math

from .quat import (Quaternion, ZERO, ONE, DEFAULT_TOL, _Frozen, _checked_coords,
                   _add, _conj, _conj_mul_conj, _im_norm, _inv, _mul, _mul_add,
                   _new, _norm, _norm2, _re_cross, _re_mul, _sub, _tau0_t0)

# Norm threshold under which an entry is treated as zero when dispatching
# between algebraic case formulas. Dispatch must be deterministic under
# rounding, hence a hard cutoff rather than a relative test.
NONZERO_TOL = 1e-12

# the shapes of T (:func:`shape`) that ``dynamics.iterate`` runs in; a
# diagonal T fits all
MODES = ("diagonal", "upper", "lower")

# the error of a result with a non-finite value: an ``iterate`` record, or
# any result that overflowed (the CLI's JSON encoder raises it too)
NOT_FINITE = "result is not finite (a computation overflowed)"
# the error of a T whose shape is "full"
NO_TRIANGLE = "T matches no test shape (neither triangle is zero)"
_KEYS = {"a", "b", "c", "d"}        # the entries of an input matrix


class SingularMatrixError(ValueError):
    """A computation needed an invertible matrix and got a singular one."""


def _entry(i: int) -> property:
    """The read property of entry i: a ``Quaternion`` of its coordinates."""
    return property(lambda m: Quaternion(*m._coords[i]))


class MatH2(_Frozen):
    """Row-major 2x2 matrix [[a, b], [c, d]] over the quaternions. Its one
    slot, ``_coords``, holds the kernels' entry coordinates, ((w, x, y, z) of
    a, of b, of c, of d); reading an entry builds its ``Quaternion``."""

    __slots__ = ("_coords",)
    _fields = ("a", "b", "c", "d")
    a, b, c, d = map(_entry, range(4))

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        _set_coords(self, (a._c, b._c, c._c, d._c))

    def __matmul__(self, other: "MatH2") -> "MatH2":
        return _from_coords(_product(self._coords, other._coords))

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return (self.a, self.b, self.c, self.d)

    def max_entry_norm(self) -> float:
        return max(self.a.norm(), self.b.norm(), self.c.norm(), self.d.norm())

    def scaled(self, s: float) -> "MatH2":
        """Entrywise scaling by a real scalar (central, so side-free)."""
        return MatH2(self.a * s, self.b * s, self.c * s, self.d * s)

    def to_dict(self) -> dict:
        a, b, c, d = self._coords
        return {"a": list(a), "b": list(b), "c": list(c), "d": list(d)}

    @classmethod
    def from_dict(cls, obj) -> "MatH2":
        """Decode {"a": [...], ..., "d": [...]}, the one check of an input matrix."""
        if not isinstance(obj, dict) or not obj.keys() >= _KEYS:
            raise ValueError("matrix must be an object with entries a, b, c, d")
        return _from_coords((_checked_coords(obj["a"]), _checked_coords(obj["b"]),
                             _checked_coords(obj["c"]), _checked_coords(obj["d"])))


_set_coords = MatH2._coords.__set__


def _product(m, n) -> tuple[tuple[float, float, float, float], ...]:
    """Entry coordinates of the matrix product m n, from those of m and n:
    entrywise sums of ordered products; factor order matters."""
    a, b, c, d = m
    e, f, g, h = n
    return (_mul_add(a, e, b, g), _mul_add(a, f, b, h),
            _mul_add(c, e, d, g), _mul_add(c, f, d, h))


def _from_coords(entries) -> MatH2:
    """The matrix whose entries have these coordinates."""
    m = _new(MatH2)
    _set_coords(m, entries)
    return m


def _norms2(m) -> tuple[float, float, float, float]:
    """The squared norms of the four entries with coordinates m."""
    a, b, c, d = m
    return (_norm2(a), _norm2(b), _norm2(c), _norm2(d))


def identity() -> MatH2:
    return MatH2(ONE, ZERO, ZERO, ONE)


def diagonal(lam: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, ZERO, ZERO, mu)


def upper_triangular(lam: Quaternion, eta: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, eta, ZERO, mu)


def lower_triangular(lam: Quaternion, eta: Quaternion, mu: Quaternion) -> MatH2:
    return MatH2(lam, ZERO, eta, mu)


def shape(m: MatH2, tol: float) -> str:
    """The triangle of m: "diagonal", "upper", "lower" or "full" by which
    off-diagonal entries have norm <= tol. Every shape gate asks this."""
    _, b, c, _ = m._coords
    return _shape(_norm2(b), _norm2(c), tol)


def _shape(nb: float, nc: float, tol: float) -> str:
    """:func:`shape` of the matrix whose b and c have squared norms nb and nc."""
    b_zero = math.sqrt(nb) <= tol
    if math.sqrt(nc) <= tol:
        return "diagonal" if b_zero else "upper"
    return "lower" if b_zero else "full"


def alpha(m: MatH2) -> float:
    """|a|^2 |d|^2 + |b|^2 |c|^2 - 2 Re(a conj(c) d conj(b)), clamped at 0.

    Non-negative in exact arithmetic (it is the squared Dieudonne
    determinant); tiny negative rounding residue is clamped away, but not
    an overflow (inf - inf = NaN), which must not read as a singular matrix.
    """
    return _alpha(m._coords, _norms2(m._coords))


def _alpha(m, n2) -> float:
    """:func:`alpha` of the matrix with entry coordinates m (and n2)."""
    a, b, c, d = m
    value = n2[0] * n2[3] + n2[1] * n2[2] - 2.0 * _re_cross(a, c, d, b)
    return 0.0 if value < 0.0 else value


def det(m: MatH2) -> float:
    """Dieudonne determinant sqrt(alpha); total, multiplicative, >= 0.

    Coincides with |ad - a c a^-1 b| whenever a != 0; the alpha route is
    used because it needs no inverses.
    """
    return math.sqrt(alpha(m))


def nonsingular_alpha(m: MatH2) -> float:
    """alpha(m) of a matrix that a computation must invert or act by.

    The one owner of the singular/overflow decision: det = sqrt(alpha) <=
    NONZERO_TOL is a :class:`SingularMatrixError`; a non-finite alpha
    (entries that overflow, inf - inf = NaN included) is a ``ValueError``,
    never a NaN result. The coordinate kernels apply the same rule,
    ``_nonsingular``, to an alpha they have already computed.
    """
    return _nonsingular(alpha(m))


def _nonsingular(value: float) -> float:
    """The rule of :func:`nonsingular_alpha`, on an alpha already computed."""
    if math.sqrt(value) <= NONZERO_TOL:
        raise SingularMatrixError("singular matrix")
    if not math.isfinite(value):
        raise ValueError("matrix entries overflow: determinant is not finite")
    return value


def in_sigma(m: MatH2, tol: float = DEFAULT_TOL) -> bool:
    """Membership in Sigma, the determinant-1 group."""
    return abs(det(m) - 1.0) <= tol


def normalize_to_sigma(m: MatH2) -> MatH2:
    """Scale by the positive real 1/sqrt(det) so the result has determinant 1."""
    return m.scaled(1.0 / math.sqrt(math.sqrt(nonsingular_alpha(m))))


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


class TildeSet(_Frozen):
    """The eight normalized cofactor quantities of an invertible matrix.

    The left family (suffix ``_t``) divides out an l-factor, the right
    family (suffix ``_s``) an r-factor. Both assemble the same inverse
    matrix [[d, -b], [-c, a]]-style, so corresponding members agree; the
    two computation routes are kept separate for cross-checking.
    """

    __slots__ = _fields = ("a_t", "b_t", "c_t", "d_t", "a_s", "b_s", "c_s", "d_s")

    def __init__(self, a_t: Quaternion, b_t: Quaternion, c_t: Quaternion,
                 d_t: Quaternion, a_s: Quaternion, b_s: Quaternion,
                 c_s: Quaternion, d_s: Quaternion):
        self._set_fields(a_t, b_t, c_t, d_t, a_s, b_s, c_s, d_s)


def tilde_set(m: MatH2) -> TildeSet:
    """Compute all eight tilde quantities of an invertible matrix.

    Each left value is l^-1 times an entry, each right value an entry times
    r^-1, so an exactly zero entry gives an exactly zero tilde value, as
    the closed form of :func:`inverse` does.
    """
    nonsingular_alpha(m)
    a, b, c, d = m.entries()
    l11, l12, l21, l22 = l_values(m)
    r11, r12, r21, r22 = r_values(m)
    return TildeSet(
        a_t=l22.inverse() * a, b_t=l12.inverse() * b,
        c_t=l21.inverse() * c, d_t=l11.inverse() * d,
        a_s=a * r22.inverse(), b_s=b * r12.inverse(),
        c_s=c * r21.inverse(), d_s=d * r11.inverse(),
    )


def inverse(m: MatH2) -> MatH2:
    """Matrix inverse in closed form (Cao, Parker & Wang 2004).

        A^-1 = (1/alpha) [[|d|^2 conj(a) - conj(c) d conj(b),  |b|^2 conj(c) - conj(a) b conj(d)],
                          [|c|^2 conj(b) - conj(d) c conj(a),  |a|^2 conj(d) - conj(b) a conj(c)]]

    The formula alone gives an exactly zero inverse entry when its source
    entry (d, b, c, a respectively) is exactly zero, so exact-zero
    couplings survive the conjugation step and decide truncation along a
    trace, while a tiny source entry keeps the term that contracts it. The
    Kellerhals routes (:func:`tilde_set`, :func:`inverse_r`) stay as the
    paper's quantities and as test oracles.
    """
    m = m._coords
    n2 = _norms2(m)
    return _from_coords(_inverse_coords(m, n2, _nonsingular(_alpha(m, n2))))


def _inverse_coords(m, n2, value: float) -> tuple[tuple[float, float, float, float], ...]:
    """Coordinates of the four entries of :func:`inverse` of the matrix with
    entry coordinates m (and n2), given its alpha ``value`` (checked by the caller)."""
    s = 1.0 / value
    a, b, c, d = m
    return (_inverse_entry(a, n2[3], c, d, b, s), _inverse_entry(c, n2[1], a, b, d, s),
            _inverse_entry(b, n2[2], d, c, a, s), _inverse_entry(d, n2[0], b, a, c, s))


def _inverse_entry(p, n, u, source, v, s) -> tuple[float, float, float, float]:
    """Coordinates of (conj(p) n - conj(u) source conj(v)) s, n = |source|^2:
    one entry of :func:`inverse`."""
    pw, px, py, pz = p
    qw, qx, qy, qz = _conj_mul_conj(u, source, v)
    return ((pw * n - qw) * s, (-px * n - qx) * s,
            (-py * n - qy) * s, (-pz * n - qz) * s)


def inverse_r(m: MatH2) -> MatH2:
    """Matrix inverse via the right Kellerhals factors (cross-check route)."""
    t = tilde_set(m)
    return MatH2(t.d_s, -t.b_s, -t.c_s, t.a_s)


def _conjugate(m, t, n2, value: float) -> tuple[tuple[float, float, float, float], ...]:
    """Entry coordinates of m t m^-1 from those of m and t, given m's n2 and
    alpha ``value`` (checked by the caller): bitwise ``m @ t @ inverse(m)``."""
    return _product(_product(m, t), _inverse_coords(m, n2, value))


def _k_value(lam, mu) -> float:
    """:func:`ineq.k_value` of the diagonal entries with coordinates lam and mu."""
    dr = lam[0] - mu[0]
    di = _im_norm(lam) + _im_norm(mu)
    return dr * dr + di * di


def _displacement(s, t, side: str, n2) -> tuple:
    """(|coupling|, tau0, t0, |tau0|, |t0|, |coupling| sqrt(|tau0| |t0|)) of
    the pair with entry coordinates s and t, from |coupling|^2 in s's n2 (for
    the cutoff and c^-1); the last five are None unless |coupling| > NONZERO_TOL.

    The coupling entry is c of S on any side but ``"lower"``, which reads the
    J-flip J m J = [[d, c], [b, a]], J = [[0, 1], [1, 0]]: the reversed entry
    tuple. J has determinant 1 and swaps the fixed points 0 and infinity, so
    a lower T = [[lam, 0], [eta, mu]] becomes [[mu, eta], [0, lam]] and b of
    S the coupling entry: the paper's lower displacement quantities

        tau0 = mu (-b^-1 a) + eta + (b^-1 a) lam
        t0   = mu (d b^-1)  + eta - (d b^-1) lam

    are :func:`ineq.tau0_t0_upper` of (J S J, J T J), same products, same order.
    Gates, determinants and the diagonal quantities read the pair as given.
    """
    if side == "lower":
        s, t, n2 = s[::-1], t[::-1], n2[::-1]
    a, _, c, d = s
    coupling = math.sqrt(n2[2])
    if not coupling > NONZERO_TOL:
        return (coupling, None, None, None, None, None)
    lam, eta, _, mu = t
    cinv = _inv(c, n2[2])
    tau0, t0 = _tau0_t0(lam, eta, mu, _mul(cinv, d), _mul(a, cinv))
    tau0_norm, t0_norm = _norm(tau0), _norm(t0)
    return (coupling, tau0, t0, tau0_norm, t0_norm,
            coupling * math.sqrt(tau0_norm * t0_norm))


def commutator(a: MatH2, b: MatH2) -> MatH2:
    """A B A^-1 B^-1; A singular or overflowing is reported before B."""
    return a @ b @ inverse(a) @ inverse(b)


def _commutator_trace(a, b, na, nb, alpha_a: float, alpha_b: float) -> float:
    """Re(c.a) + Re(c.d) of c = :func:`commutator` (a, b), from the entry
    coordinates, n2 and alpha of a and of b, bitwise and with the same errors
    in the same order (a's check before b's), from the w coordinates of the
    diagonal of (a b a^-1) b^-1 alone."""
    xa, xb, xc, xd = _conjugate(a, b, na, _nonsingular(alpha_a))
    e, f, g, h = _inverse_coords(b, nb, _nonsingular(alpha_b))
    return (_re_mul(xa, e) + _re_mul(xb, g)) + (_re_mul(xc, f) + _re_mul(xd, h))


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
    return tuple(Quaternion(*e) for e in _parker_short(m._coords, _norms2(m._coords)))


def _parker_short(m, n2) -> tuple[tuple[float, float, float, float], ...]:
    """(sigma, tau) of :func:`parker_short` on m's entry coordinates (and n2)."""
    a, b, c, d = m
    if math.sqrt(n2[2]) > NONZERO_TOL:
        core = _mul(_mul(c, a), _inv(c, n2[2]))
        return (_sub(_mul(core, d), _mul(c, b)), _add(core, d))
    if math.sqrt(n2[1]) > NONZERO_TOL:
        core = _mul(_mul(b, d), _inv(b, n2[1]))
        return (_mul(core, a), _add(core, a))
    diff = _sub(d, a)
    if _norm(diff) > NONZERO_TOL:
        core = _mul(_mul(diff, a), _inv(diff, _norm2(diff)))
        return (_mul(core, d), _add(core, d))
    return (_mul(a, _conj(a)), _add(a, _conj(a)))


class InvariantSet(_Frozen):
    """All scalar and quaternionic conjugacy invariants of one matrix."""

    __slots__ = _fields = ("alpha", "beta", "gamma", "delta", "sigma", "tau")

    def __init__(self, alpha: float, beta: float, gamma: float, delta: float,
                 sigma: Quaternion, tau: Quaternion):
        self._set_fields(alpha, beta, gamma, delta, sigma, tau)

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
