"""2x2 quaternionic matrices and their conjugacy invariants.

Implements the Dieudonne determinant, the closed-form inverse, the
Kellerhals factors and tilde quantities (kept as paper quantities and
test oracles), Foreman's conjugacy invariants (beta, gamma, delta) and the
Parker-Short quantities (sigma, tau). The group of determinant-1 matrices
(called Sigma throughout) acts by isometries on hyperbolic 5-space; its
boundary action lives in :mod:`qmobius.moebius`.

``MatH2 @``, :func:`alpha` (hence :func:`det` and
:func:`nonsingular_alpha`), :func:`inverse` and :func:`conjugate` (the
conjugation step m t m^-1, which :func:`commutator` uses too) are the hot
path. They compute on entry coordinates and build only their result
quaternions, but each result coordinate is the float expression of the
``Quaternion`` formula in its docstring, evaluated in the same order: the
results are bitwise equal to that formula's, error types included. One
helper holds each formula (``_mul``, ``_re_mul``, ``_prod_sum``,
``_inverse_entry``), and the kernels share their coordinate tuples. The
callers that read only part of a result stay on coordinates throughout:
``_conjugate`` takes an alpha already computed (``dynamics.iterate``
computes it once per step), and ``_alphas_and_commutator_trace``
evaluates only the real parts of the commutator's diagonal, returning the
two alphas it computes on the way (``ineq`` ``jh`` gates on them).
"""

from __future__ import annotations

import math

from .quat import Quaternion, ZERO, ONE, DEFAULT_TOL, _Frozen, _q

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


class SingularMatrixError(ValueError):
    """A computation needed an invertible matrix and got a singular one."""


class MatH2(_Frozen):
    """Row-major 2x2 matrix [[a, b], [c, d]] over the quaternions."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        # a conjugation step builds three matrices: write the slots directly
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def __matmul__(self, other: "MatH2") -> "MatH2":
        return _from_coords(_product(_coords(self), _coords(other)))

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
    def from_dict(cls, obj) -> "MatH2":
        """Decode {"a": [...], ..., "d": [...]}, the one check of an input matrix."""
        if not isinstance(obj, dict) or not obj.keys() >= {"a", "b", "c", "d"}:
            raise ValueError("matrix must be an object with entries a, b, c, d")
        return cls(*map(Quaternion.from_list, (obj["a"], obj["b"], obj["c"], obj["d"])))


_set_a = MatH2.a.__set__
_set_b = MatH2.b.__set__
_set_c = MatH2.c.__set__
_set_d = MatH2.d.__set__


# Kernel helpers on (w, x, y, z) coordinate tuples. A conjugate enters with
# its coordinates negated, as ``q.conj()`` stores them, so every expression
# is the one Quaternion arithmetic evaluates.

def _coords(m: MatH2) -> tuple[tuple[float, float, float, float], ...]:
    a, b, c, d = m.a, m.b, m.c, m.d
    return ((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z),
            (c.w, c.x, c.y, c.z), (d.w, d.x, d.y, d.z))


def _mul(p, q) -> tuple[float, float, float, float]:
    """Coordinates of the Hamilton product p q (``Quaternion.__mul__``)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _re_mul(p, q) -> float:
    """Re(p q): the w coordinate of :func:`_mul`, the same expression."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return pw * qw - px * qx - py * qy - pz * qz


def _prod_sum(p, q, r, s) -> tuple[float, float, float, float]:
    """Coordinates of p q + r s: one entry of a matrix product."""
    pw, px, py, pz = _mul(p, q)
    rw, rx, ry, rz = _mul(r, s)
    return (pw + rw, px + rx, py + ry, pz + rz)


def _product(m, n) -> tuple[tuple[float, float, float, float], ...]:
    """Entry coordinates of the matrix product m n, from those of m and n:
    entrywise sums of ordered products; factor order matters."""
    a, b, c, d = m
    e, f, g, h = n
    return (_prod_sum(a, e, b, g), _prod_sum(a, f, b, h),
            _prod_sum(c, e, d, g), _prod_sum(c, f, d, h))


def _from_coords(entries) -> MatH2:
    """The matrix whose entries have these coordinates."""
    a, b, c, d = entries
    return MatH2(_q(*a), _q(*b), _q(*c), _q(*d))


def _norm2(p) -> float:
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def _conj(p) -> tuple[float, float, float, float]:
    w, x, y, z = p
    return (w, -x, -y, -z)


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
    b_zero = m.b.norm() <= tol
    if m.c.norm() <= tol:
        return "diagonal" if b_zero else "upper"
    return "lower" if b_zero else "full"


def alpha(m: MatH2) -> float:
    """|a|^2 |d|^2 + |b|^2 |c|^2 - 2 Re(a conj(c) d conj(b)), clamped at 0.

    Non-negative in exact arithmetic (it is the squared Dieudonne
    determinant); tiny negative rounding residue is clamped away, but not
    an overflow (inf - inf = NaN), which must not read as a singular matrix.
    """
    return _alpha(_coords(m))


def _alpha(m) -> float:
    """:func:`alpha` of the matrix with entry coordinates m."""
    a, b, c, d = m
    pw, px, py, pz = _mul(_mul(a, _conj(c)), d)
    bw, bx, by, bz = b
    # Re(p conj(b)): _re_mul(p, _conj(b)), written out on the hot path
    value = (_norm2(a) * _norm2(d) + _norm2(b) * _norm2(c)
             - 2.0 * (pw * bw - px * -bx - py * -by - pz * -bz))
    return 0.0 if value < 0.0 else value


def det(m: MatH2) -> float:
    """Dieudonne determinant sqrt(alpha); total, multiplicative, >= 0.

    Coincides with |ad - a c a^-1 b| whenever a != 0; the alpha route is
    used because it needs no inverses.
    """
    return math.sqrt(_alpha(_coords(m)))


def nonsingular_alpha(m: MatH2) -> float:
    """alpha(m) of a matrix that a computation must invert or act by.

    The one owner of the singular/overflow decision: det = sqrt(alpha) <=
    NONZERO_TOL is a :class:`SingularMatrixError`; a non-finite alpha
    (entries that overflow, inf - inf = NaN included) is a ``ValueError``,
    never a NaN result. The coordinate kernels apply the same rule,
    ``_nonsingular``, to an alpha they have already computed.
    """
    return _nonsingular(_alpha(_coords(m)))


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
    m = _coords(m)
    return _from_coords(_inverse_coords(m, _nonsingular(_alpha(m))))


def _inverse_coords(m, value: float) -> tuple[tuple[float, float, float, float], ...]:
    """Coordinates of the four entries of :func:`inverse` of the matrix with
    entry coordinates m, given its alpha ``value`` (checked by the caller)."""
    s = 1.0 / value
    a, b, c, d = m
    return (_inverse_entry(a, d, c, b, s), _inverse_entry(c, b, a, d, s),
            _inverse_entry(b, c, d, a, s), _inverse_entry(d, a, b, c, s))


def _inverse_entry(p, source, u, v, s) -> tuple[float, float, float, float]:
    """Coordinates of (conj(p) |source|^2 - conj(u) source conj(v)) s: one
    entry of :func:`inverse`."""
    n = _norm2(source)
    pw, px, py, pz = p
    qw, qx, qy, qz = _mul(_mul(_conj(u), source), _conj(v))
    return ((pw * n - qw) * s, (-px * n - qx) * s,
            (-py * n - qy) * s, (-pz * n - qz) * s)


def inverse_r(m: MatH2) -> MatH2:
    """Matrix inverse via the right Kellerhals factors (cross-check route)."""
    t = tilde_set(m)
    return MatH2(t.d_s, -t.b_s, -t.c_s, t.a_s)


def conjugate(m: MatH2, t: MatH2) -> MatH2:
    """m t m^-1, the conjugation step S_{n+1} = S_n T S_n^-1.

    Bitwise equal to ``m @ t @ inverse(m)``, errors included: the product
    m t and the entries of m^-1 stay coordinate tuples, and only the four
    result quaternions are built.
    """
    m = _coords(m)
    return _from_coords(_conjugate(m, _coords(t), _nonsingular(_alpha(m))))


def _conjugate(m, t, value: float) -> tuple[tuple[float, float, float, float], ...]:
    """Entry coordinates of :func:`conjugate` from those of m and t, given
    m's alpha ``value`` (checked by the caller)."""
    return _product(_product(m, t), _inverse_coords(m, value))


def commutator(a: MatH2, b: MatH2) -> MatH2:
    """A B A^-1 B^-1. :func:`_commutator_trace` computes its trace alone."""
    return conjugate(a, b) @ inverse(b)


def _commutator_trace(a: MatH2, b: MatH2) -> float:
    """Re(c.a) + Re(c.d) of c = :func:`commutator` (a, b), bitwise and with
    the same errors in the same order (a's check before b's)."""
    return _alphas_and_commutator_trace(a, b)[2]


def _alphas_and_commutator_trace(a: MatH2, b: MatH2) -> tuple[float, float, float]:
    """:func:`alpha` of a and of b, each computed once, and
    :func:`_commutator_trace` (a, b): ``ineq`` ``jh`` gates on the two
    determinants and reads the trace.

    The product (a b a^-1) b^-1 is evaluated only for the w coordinates of
    its two diagonal entries, each the expression of ``_prod_sum``.
    """
    a, b = _coords(a), _coords(b)
    alpha_a, alpha_b = _alpha(a), _alpha(b)
    xa, xb, xc, xd = _conjugate(a, b, _nonsingular(alpha_a))
    e, f, g, h = _inverse_coords(b, _nonsingular(alpha_b))
    return (alpha_a, alpha_b,
            (_re_mul(xa, e) + _re_mul(xb, g)) + (_re_mul(xc, f) + _re_mul(xd, h)))


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
