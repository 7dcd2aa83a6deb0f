"""Moebius action of determinant-1 quaternionic matrices on H + {infinity}.

The boundary of hyperbolic 5-space is the extended quaternionic plane;
a matrix [[a, b], [c, d]] acts by Z -> (aZ + b)(cZ + d)^-1. This module
also classifies the triangular normal forms (elliptic / parabolic /
hyperbolic / strictly hyperbolic); classification of arbitrary matrices
requires conjugating into triangular form, which is out of scope, so
non-triangular input honestly classifies as UNCLASSIFIED.
"""

from __future__ import annotations

import enum

from .quat import Quaternion, ZERO, DEFAULT_TOL, _add, _inv, _mul, _norm, _norm2
from . import qmat
from .qmat import MatH2, NONZERO_TOL


class _Point(enum.Enum):
    """The two non-quaternion points: enum members are singletons, so
    ``is`` tests stay valid through copies and pickles."""

    INFINITY = "inf"       # the single point at infinity of H + {infinity}
    ALL_POINTS = "all"     # the fixed-point set of the identity

    def __repr__(self) -> str:
        return self.name


INFINITY = _Point.INFINITY
ALL_POINTS = _Point.ALL_POINTS

ExtQuaternion = Quaternion | _Point


def apply(m: MatH2, z: ExtQuaternion) -> ExtQuaternion:
    """Evaluate the fractional linear map Z -> (aZ + b)(cZ + d)^-1.

    Finite Z with cZ + d ~ 0 maps to infinity: |cZ + d| <= NONZERO_TOL *
    (1 + |Z|), or = 0 if |c| <= NONZERO_TOL (such an m fixes infinity and
    has no finite pole). Infinity maps to a c^-1 otherwise. A singular or
    overflowing m is an error (:func:`qmat.nonsingular_alpha`), and so is
    ALL_POINTS, a set of points rather than a point.
    """
    qmat.nonsingular_alpha(m)
    a, b, c, d = m._coords
    fixes_infinity = _norm(c) <= NONZERO_TOL
    if z is INFINITY:
        return INFINITY if fixes_infinity else Quaternion(*_mul(a, _inv(c, _norm2(c))))
    if z is ALL_POINTS:
        raise ValueError("ALL_POINTS is a set of points, not a point")
    z = z._c
    denom = _add(_mul(c, z), d)
    pole_tol = 0.0 if fixes_infinity else NONZERO_TOL * (1.0 + _norm(z))
    if _norm(denom) <= pole_tol:
        return INFINITY
    return Quaternion(*_mul(_add(_mul(a, z), b), _inv(denom, _norm2(denom))))


class IsometryClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    STRICTLY_HYPERBOLIC = "strictly_hyperbolic"
    IDENTITY = "identity"
    UNCLASSIFIED = "unclassified"


def classify_normal_form(m: MatH2, tol: float = DEFAULT_TOL) -> IsometryClass:
    """Classify an upper-triangular determinant-1 matrix by its normal form.

    Diagonal with unit entries -> ELLIPTIC, otherwise HYPERBOLIC, refined
    to STRICTLY_HYPERBOLIC for real diagonals; [[lam, b], [0, lam]] with
    |lam| = 1 and b != 0 -> PARABOLIC; +-identity -> IDENTITY. Anything
    else (non-triangular input, non-Sigma input, or a triangular matrix
    that is not one of the normal forms) -> UNCLASSIFIED.
    """
    kind = qmat.shape(m, tol)
    if kind not in ("upper", "diagonal") or not qmat.in_sigma(m, tol):
        return IsometryClass.UNCLASSIFIED
    lam, mu = m.a, m.d
    if kind == "diagonal" and any(
            (lam - sign).norm() <= tol and (mu - sign).norm() <= tol
            for sign in (1.0, -1.0)):
        return IsometryClass.IDENTITY
    unit = abs(lam.norm() - 1.0) <= tol and abs(mu.norm() - 1.0) <= tol
    if kind == "diagonal":
        if unit:
            return IsometryClass.ELLIPTIC
        if abs(lam.im_norm()) <= tol and abs(mu.im_norm()) <= tol:
            return IsometryClass.STRICTLY_HYPERBOLIC
        return IsometryClass.HYPERBOLIC
    # parabolic normal form requires equal diagonal entries, not merely
    # similar ones: [[i, 1], [0, -i]] has similar entries but fixes i/2
    if unit and (lam - mu).norm() <= tol:
        return IsometryClass.PARABOLIC
    return IsometryClass.UNCLASSIFIED


def fixed_points_normal_form(m: MatH2, tol: float = DEFAULT_TOL):
    """Boundary fixed points of a triangular normal form.

    Diagonal non-identity matrices diag(lam, mu) fix 0 and infinity, the two
    points reported; when lam and mu are similar (equal real parts and
    norms), as in every elliptic diag(e^(i theta), e^(-i theta)), they also
    fix the set {Z : lam Z = Z mu}, a real plane for nonreal lam, which is
    not reported. The parabolic normal form fixes only infinity; the
    identity fixes everything (ALL_POINTS sentinel). Other upper-triangular
    matrices still fix infinity, and only that point is reported (a second
    finite fixed point may exist but is not computed). Non-triangular input
    is a domain error.
    """
    kind = qmat.shape(m, tol)
    if kind not in ("upper", "diagonal"):
        raise ValueError("matrix is not upper-triangular")
    if classify_normal_form(m, tol) is IsometryClass.IDENTITY:
        return ALL_POINTS
    if kind == "diagonal":
        return [ZERO, INFINITY]
    return [INFINITY]


def encode_point(z) -> object:
    """JSON encoding: finite points as 4-arrays, INFINITY and ALL_POINTS as
    their values "inf" and "all"."""
    if isinstance(z, _Point):
        return z.value
    return z.as_list()
