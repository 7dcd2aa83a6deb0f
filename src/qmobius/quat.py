"""Real quaternion arithmetic.

Everything downstream (matrices, Moebius maps, inequality tests) is built on
this module. Quaternions are immutable value objects over 64-bit floats;
comparisons against tolerances are the caller's job, with ``DEFAULT_TOL``
as the library-wide default for unit-scale data.

A :class:`Quaternion` holds one coordinate tuple (w, x, y, z). Each formula
(``_mul``, ``_add``, ``_sub``, ``_neg``, ``_norm``, ``_inv``...) is written once,
on coordinate tuples; ``Quaternion`` and every other module's kernels call it.
Three kernels are kept for speed: each is one call for a composition of
those formulas, with its float expressions in the same order, so bitwise
that composition. ``_re_mul`` is the w coordinate of ``_mul``, ``_mul_add``
p q + r s (an entry of a matrix product) and ``_conj_mul_conj`` conj(u) s
conj(v) (a term of an inverse entry).
"""

from __future__ import annotations

import math
import reprlib
from math import isfinite
from operator import attrgetter

DEFAULT_TOL = 1e-9

# the coordinate types accepted from input: exactly these, so not bool or str
_REAL = (int, float)


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


def _coord(i: int) -> property:
    """The read property of coordinate i."""
    return property(lambda q: q._c[i])


class Quaternion(_Frozen):
    """A quaternion w + x*i + y*j + z*k.

    The basis satisfies i*i = j*j = k*k = -1 and i*j = -j*i = k,
    j*k = -k*j = i, k*i = -i*k = j. Real scalars embed as (w, 0, 0, 0)
    and commute with everything; nonreal quaternions do not. Its one slot,
    ``_c``, is its field tuple (w, x, y, z); ``w`` to ``z`` and ``re`` read it.
    """

    __slots__ = ("_c",)
    _fields = ("w", "x", "y", "z")
    w, x, y, z = map(_coord, range(4))
    re = w

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0):
        _set_c(self, (float(w), float(x), float(y), float(z)))

    def im(self) -> "Quaternion":
        _, x, y, z = self._c
        return Quaternion(0.0, x, y, z)

    def conj(self) -> "Quaternion":
        return Quaternion(*_conj(self._c))

    def norm2(self) -> float:
        return _norm2(self._c)

    def norm(self) -> float:
        return _norm(self._c)

    def im_norm(self) -> float:
        return _im_norm(self._c)

    __abs__ = norm

    def __add__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(*_add(self._c, other._c))
        if isinstance(other, (int, float)):
            pw, px, py, pz = self._c
            return Quaternion(pw + other, px, py, pz)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(*_sub(self._c, other._c))
        if isinstance(other, (int, float)):
            pw, px, py, pz = self._c
            return Quaternion(pw - other, px, py, pz)
        return NotImplemented

    def __rsub__(self, other) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(*_neg(self._c))

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(*_mul(self._c, other._c))
        if isinstance(other, (int, float)):
            w, x, y, z = self._c
            return Quaternion(w * other, x * other, y * other, z * other)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        # only reached for real scalars, which are central
        return self.__mul__(other)

    def __truediv__(self, other) -> "Quaternion":
        if isinstance(other, (int, float)):
            w, x, y, z = self._c
            return Quaternion(w / other, x / other, y / other, z / other)
        # q1 / q2 is ambiguous in a noncommutative ring; be explicit:
        # p * q.inverse() or q.inverse() * p.
        return NotImplemented

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2."""
        n2 = _norm2(self._c)
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible quaternion")
        return Quaternion(*_inv(self._c, n2))

    def as_list(self) -> list[float]:
        """JSON-friendly [w, x, y, z] encoding."""
        return list(self._c)

    @classmethod
    def from_list(cls, coords) -> "Quaternion":
        """Decode [w, x, y, z] (see :func:`_checked_coords`)."""
        return Quaternion(*_checked_coords(coords))

    def __repr__(self) -> str:
        return "Quaternion({!r}, {!r}, {!r}, {!r})".format(*self._c)


Quaternion._astuple = Quaternion._c
_new = object.__new__
_set_c = Quaternion._c.__set__


def _mul(p, q) -> tuple[float, float, float, float]:
    """Coordinates of the Hamilton product p q."""
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


def _mul_add(p, q, r, s) -> tuple[float, float, float, float]:
    """Coordinates of p q + r s: ``_add(_mul(p, q), _mul(r, s))``, the same
    expressions in the same order, in one call (one entry of a matrix product)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    rw, rx, ry, rz = r
    sw, sx, sy, sz = s
    return ((pw * qw - px * qx - py * qy - pz * qz) + (rw * sw - rx * sx - ry * sy - rz * sz),
            (pw * qx + px * qw + py * qz - pz * qy) + (rw * sx + rx * sw + ry * sz - rz * sy),
            (pw * qy - px * qz + py * qw + pz * qx) + (rw * sy - rx * sz + ry * sw + rz * sx),
            (pw * qz + px * qy - py * qx + pz * qw) + (rw * sz + rx * sy - ry * sx + rz * sw))


def _conj_mul_conj(u, s, v) -> tuple[float, float, float, float]:
    """Coordinates of conj(u) s conj(v): ``_mul(_mul(_conj(u), s), _conj(v))``,
    the same expressions in the same order, in one call (one term of an
    inverse entry)."""
    pw, px, py, pz = u
    px, py, pz = -px, -py, -pz
    qw, qx, qy, qz = s
    mw = pw * qw - px * qx - py * qy - pz * qz
    mx = pw * qx + px * qw + py * qz - pz * qy
    my = pw * qy - px * qz + py * qw + pz * qx
    mz = pw * qz + px * qy - py * qx + pz * qw
    qw, qx, qy, qz = v
    qx, qy, qz = -qx, -qy, -qz
    return (mw * qw - mx * qx - my * qy - mz * qz,
            mw * qx + mx * qw + my * qz - mz * qy,
            mw * qy - mx * qz + my * qw + mz * qx,
            mw * qz + mx * qy - my * qx + mz * qw)


def _add(p, q) -> tuple[float, float, float, float]:
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def _sub(p, q) -> tuple[float, float, float, float]:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def _neg(p) -> tuple[float, float, float, float]:
    w, x, y, z = p
    return (-w, -x, -y, -z)


def _norm2(p) -> float:
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def _norm(p) -> float:
    return math.sqrt(_norm2(p))


def _im_norm(p) -> float:
    return math.sqrt(p[1] * p[1] + p[2] * p[2] + p[3] * p[3])


def _conj(p) -> tuple[float, float, float, float]:
    w, x, y, z = p
    return (w, -x, -y, -z)


def _inv(p, n: float) -> tuple[float, float, float, float]:
    """Coordinates of p^-1 = conj(p) / n, given n = |p|^2 (nonzero)."""
    w, x, y, z = p
    return (w / n, -x / n, -y / n, -z / n)


def _checked_coords(coords) -> tuple[float, float, float, float]:
    """The float coordinates of [w, x, y, z], the one check of coordinates
    read from input: a list or tuple of four finite int or float values
    (not bool or str)."""
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValueError("quaternion encoding must be a list of 4 coordinates")
    w, x, y, z = coords
    try:
        if (type(w) in _REAL and type(x) in _REAL
                and type(y) in _REAL and type(z) in _REAL):
            w, x, y, z = float(w), float(x), float(y), float(z)
            # each one: a sum of finite values can overflow
            if isfinite(w) and isfinite(x) and isfinite(y) and isfinite(z):
                return (w, x, y, z)
    except OverflowError:           # an int beyond float range
        pass
    raise ValueError("quaternion coordinates must be finite numbers, "
                     f"got {reprlib.repr(coords)}")


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
    return _similar(p._c, q._c, tol)


def _similar(p, q, tol: float) -> bool:
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return abs(p[0] - q[0]) <= tol and abs(_norm(p) - _norm(q)) <= tol


def arg(q: Quaternion) -> float:
    """Angle theta in [0, pi] with cos(theta) = Re(q)/|q|, sin(theta) = |Im(q)|/|q|.

    Built from atan2(|Im q|, Re q) rather than acos to stay accurate near
    0 and pi. Undefined at q = 0.
    """
    return _arg(q._c)


def _arg(p) -> float:
    if _norm2(p) == 0.0:
        raise ValueError("argument of zero quaternion is undefined")
    return math.atan2(_im_norm(p), p[0])


def complex_representative(q: Quaternion) -> tuple[float, float]:
    """(Re q, |Im q|): the class representative with non-negative imaginary part.

    Each similarity class meets the complex plane in a conjugate pair; this
    picks the upper-half-plane member, so the value is constant on classes.
    """
    return (q.re, q.im_norm())
