"""Real quaternion arithmetic.

Everything downstream (matrices, Moebius maps, inequality tests) is built on
this module. Quaternions are immutable value objects over 64-bit floats;
comparisons against tolerances are the caller's job, with ``DEFAULT_TOL``
as the library-wide default for unit-scale data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Quaternion:
    """A quaternion w + x*i + y*j + z*k.

    The basis satisfies i*i = j*j = k*k = -1 and i*j = -j*i = k,
    j*k = -k*j = i, k*i = -i*k = j. Real scalars embed as (w, 0, 0, 0)
    and commute with everything; nonreal quaternions do not.
    """

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    @property
    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __abs__(self) -> float:
        return self.norm()

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def __add__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            return Quaternion(
                pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        # only reached for real scalars, which are central
        return self.__mul__(other)

    def __truediv__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        # q1 / q2 is ambiguous in a noncommutative ring; be explicit:
        # p * q.inverse() or q.inverse() * p.
        return NotImplemented

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2."""
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def as_list(self) -> list[float]:
        """JSON-friendly [w, x, y, z] encoding."""
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_list(cls, coords) -> "Quaternion":
        """Decode [w, x, y, z]; the input boundary, so non-finite values fail."""
        if len(coords) != 4:
            raise ValueError("quaternion encoding must have 4 coordinates")
        values = [float(c) for c in coords]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"quaternion coordinates must be finite, got {values}")
        return cls(*values)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def similar(p: Quaternion, q: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """Whether p and q lie in the same conjugation (similarity) class.

    Two quaternions are conjugate exactly when their real parts and norms
    agree; this is a tolerance predicate, not an exact test.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return abs(p.re - q.re) <= tol and abs(p.norm() - q.norm()) <= tol


def arg(q: Quaternion) -> float:
    """Angle theta in [0, pi] with cos(theta) = Re(q)/|q|, sin(theta) = |Im(q)|/|q|.

    Built from atan2(|Im q|, Re q) rather than acos to stay accurate near
    0 and pi. Undefined at q = 0.
    """
    if q.norm2() == 0.0:
        raise ValueError("argument of zero quaternion is undefined")
    return math.atan2(q.im_norm(), q.re)


def complex_representative(q: Quaternion) -> tuple[float, float]:
    """(Re q, |Im q|): the class representative with non-negative imaginary part.

    Each similarity class meets the complex plane in a conjugate pair; this
    picks the upper-half-plane member, so the value is constant on classes.
    """
    return (q.re, q.im_norm())


def isclose(p: Quaternion, q: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """Componentwise closeness |p - q| <= tol."""
    return (p - q).norm() <= tol
