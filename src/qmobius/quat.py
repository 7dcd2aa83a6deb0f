"""Real quaternion arithmetic.

Everything downstream (matrices, Moebius maps, inequality tests) is built on
this module. Quaternions are immutable value objects over 64-bit floats;
comparisons against tolerances are the caller's job, with ``DEFAULT_TOL``
as the library-wide default for unit-scale data.
"""

from __future__ import annotations

import math
import reprlib
from operator import attrgetter

DEFAULT_TOL = 1e-9


class _Value:
    """Equality and repr by field tuple, the base of the package's value types.

    ``_fields`` names the constructor parameters in order and ``_astuple``
    reads them as a tuple. Two values are equal when they have the same
    class and equal field tuples; the mutable value types are unhashable.
    Written out by hand so that importing the package generates no code:
    every CLI process is short, and start-up is a large share of it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls):
        if cls._fields:
            cls._astuple = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class _Frozen(_Value):
    """An immutable value type: hashable, and rebuilt through its constructor
    by copy and pickle, since the frozen ``__setattr__`` blocks the default
    restore of slot state. Subclasses fill their slots past ``__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._astuple)

    def _set_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class Quaternion(_Frozen):
    """A quaternion w + x*i + y*j + z*k.

    The basis satisfies i*i = j*j = k*k = -1 and i*j = -j*i = k,
    j*k = -k*j = i, k*i = -i*k = j. Real scalars embed as (w, 0, 0, 0)
    and commute with everything; nonreal quaternions do not.
    """

    __slots__ = _fields = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0):
        _set_w(self, float(w))
        _set_x(self, float(x))
        _set_y(self, float(y))
        _set_z(self, float(z))

    @property
    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return _q(0.0, self.x, self.y, self.z)

    def conj(self) -> "Quaternion":
        return _q(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __abs__(self) -> float:
        return self.norm()

    def __add__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return _q(self.w + other.w, self.x + other.x,
                      self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return _q(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return _q(self.w - other.w, self.x - other.x,
                      self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return _q(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return _q(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            return _q(
                pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw,
            )
        if isinstance(other, (int, float)):
            return _q(self.w * other, self.x * other,
                      self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        # only reached for real scalars, which are central
        return self.__mul__(other)

    def __truediv__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            return _q(self.w / other, self.x / other,
                      self.y / other, self.z / other)
        # q1 / q2 is ambiguous in a noncommutative ring; be explicit:
        # p * q.inverse() or q.inverse() * p.
        return NotImplemented

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2."""
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible quaternion")
        return _q(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def as_list(self) -> list[float]:
        """JSON-friendly [w, x, y, z] encoding."""
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_list(cls, coords) -> "Quaternion":
        """Decode [w, x, y, z], the one check of coordinates read from input:
        a list or tuple of four finite int or float values (not bool or str)."""
        if not isinstance(coords, (list, tuple)) or len(coords) != 4:
            raise ValueError("quaternion encoding must be a list of 4 coordinates")
        try:
            values = [float(c) for c in coords if type(c) in (int, float)]
        except OverflowError:           # an int beyond float range
            values = []
        if len(values) != 4 or not all(map(math.isfinite, values)):
            raise ValueError("quaternion coordinates must be finite numbers, "
                             f"got {reprlib.repr(coords)}")
        return _q(*values)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


_new = object.__new__
_set_w = Quaternion.w.__set__
_set_x = Quaternion.x.__set__
_set_y = Quaternion.y.__set__
_set_z = Quaternion.z.__set__


def _q(w: float, x: float, y: float, z: float) -> Quaternion:
    """Build a Quaternion from coordinates that are already floats.

    Arithmetic results are floats by construction, so the public
    constructor (``__init__`` and its ``float()`` coercion) is skipped; the
    slot descriptors write past the frozen ``__setattr__``, as ``__init__``
    does. Equality, hashing
    and immutability are those of any other instance.
    """
    q = _new(Quaternion)
    _set_w(q, w)
    _set_x(q, x)
    _set_y(q, y)
    _set_z(q, z)
    return q


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
