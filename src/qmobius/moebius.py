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

from .quat import Quaternion, DEFAULT_TOL, similar
from . import qmat
from .qmat import MatH2, NONZERO_TOL


class _Infinity:
    """The single point at infinity of the extended quaternionic plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


class _AllPoints:
    """Sentinel fixed-point set of the identity (every boundary point)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL_POINTS"


INFINITY = _Infinity()
ALL_POINTS = _AllPoints()

ExtQuaternion = Quaternion | _Infinity


def is_infinity(z) -> bool:
    return z is INFINITY


def apply(m: MatH2, z: ExtQuaternion, tol: float = NONZERO_TOL) -> ExtQuaternion:
    """Evaluate the fractional linear map Z -> (aZ + b)(cZ + d)^-1.

    Finite Z with cZ + d ~ 0 maps to infinity (pole detection is scale
    aware: |cZ + d| <= tol * (1 + |Z|)); infinity maps to a c^-1 when
    c != 0 and stays fixed otherwise.
    """
    if qmat.det(m) <= tol:
        raise qmat.SingularMatrixError("singular matrix")
    if z is INFINITY:
        if m.c.norm() <= NONZERO_TOL:
            return INFINITY
        return m.a * m.c.inverse()
    denom = m.c * z + m.d
    if denom.norm() <= tol * (1.0 + z.norm()):
        return INFINITY
    return (m.a * z + m.b) * denom.inverse()


class IsometryClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    STRICTLY_HYPERBOLIC = "strictly_hyperbolic"
    IDENTITY = "identity"
    UNCLASSIFIED = "unclassified"


def _is_plus_minus_identity(m: MatH2, tol: float) -> bool:
    for sign in (1.0, -1.0):
        if ((m.a - sign).norm() <= tol and (m.d - sign).norm() <= tol
                and m.b.norm() <= tol and m.c.norm() <= tol):
            return True
    return False


def classify_normal_form(m: MatH2, tol: float = DEFAULT_TOL) -> IsometryClass:
    """Classify an upper-triangular determinant-1 matrix by its normal form.

    Diagonal with unit entries -> ELLIPTIC, otherwise HYPERBOLIC, refined
    to STRICTLY_HYPERBOLIC for real diagonals; [[lam, b], [0, lam]] with
    |lam| = 1 and b != 0 -> PARABOLIC; +-identity -> IDENTITY. Anything
    else (non-triangular input, non-Sigma input, or a triangular matrix
    that is not one of the normal forms) -> UNCLASSIFIED.
    """
    if m.c.norm() > tol or not qmat.in_sigma(m, tol):
        return IsometryClass.UNCLASSIFIED
    if _is_plus_minus_identity(m, tol):
        return IsometryClass.IDENTITY
    lam, mu = m.a, m.d
    unit = abs(lam.norm() - 1.0) <= tol and abs(mu.norm() - 1.0) <= tol
    if m.b.norm() <= tol:
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

    Diagonal non-identity matrices fix {0, infinity}; the parabolic normal
    form fixes only infinity; the identity fixes everything (ALL_POINTS
    sentinel). Other upper-triangular matrices still fix infinity, and only
    that point is reported (a second finite fixed point may exist but is
    not computed). Non-triangular input is a domain error.
    """
    if m.c.norm() > tol:
        raise ValueError("matrix is not upper-triangular")
    kind = classify_normal_form(m, tol)
    if kind is IsometryClass.IDENTITY:
        return ALL_POINTS
    if m.b.norm() <= tol:
        return [Quaternion(), INFINITY]
    return [INFINITY]


def encode_point(z) -> object:
    """JSON encoding: finite points as 4-arrays, infinity as the string "inf"."""
    if z is INFINITY:
        return "inf"
    if z is ALL_POINTS:
        return "all"
    return z.as_list()


def decode_point(obj) -> ExtQuaternion:
    if obj == "inf":
        return INFINITY
    return Quaternion.from_list(obj)
