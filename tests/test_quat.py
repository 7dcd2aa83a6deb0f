import dataclasses
import json
import math
import operator
import random
import reprlib
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from qmobius import qmat, quat
from qmobius.quat import (Quaternion, ZERO, ONE, I, J, K, DEFAULT_TOL, _Frozen,
                          arg, complex_representative, similar)
from conftest import isclose, mul_oracle, random_quaternion, random_nonzero_quaternion


def test_basis_products():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == Quaternion(-1)
    assert I * J * K == Quaternion(-1)


def test_mul_identity_and_complex_j_rule():
    q = Quaternion(0.3, -1.2, 0.8, 2.5)
    assert q * ONE == q
    # (2 + 3i) j = 2j + 3k = j (2 - 3i)
    p = Quaternion(2, 3, 0, 0)
    assert p * J == Quaternion(0, 0, 2, 3)
    assert p * J == J * Quaternion(2, -3, 0, 0)


def test_mul_against_complex_pair_oracle():
    rng = random.Random(101)
    for _ in range(200):
        p = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 2.0)
        assert isclose(p * q, mul_oracle(p, q), 1e-12)


def test_add_sub_neg_re_im_conj():
    q = Quaternion(1, 2, 3, 4)
    assert q.re == 1
    assert q.im() == Quaternion(0, 2, 3, 4)
    assert Quaternion(q.re) + q.im() == q
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert q + (-q) == ZERO
    assert (q - q) == ZERO
    # q conj(q) is the real scalar |q|^2
    assert isclose(q * q.conj(), Quaternion(q.norm2()), 1e-12)


def test_scalar_embedding_is_central():
    rng = random.Random(102)
    for _ in range(50):
        q = random_quaternion(rng, 3.0)
        x = rng.uniform(-2, 2)
        assert x * q == q * x
        assert Quaternion(x) * q == q * Quaternion(x)


def test_inverse_examples():
    assert isclose((2 * I).inverse(), -I / 2, 1e-15)
    assert ONE.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_inverse_random():
    rng = random.Random(103)
    for _ in range(300):
        q = random_nonzero_quaternion(rng, 2.0)
        assert (q * q.inverse() - ONE).norm() < 1e-12


def test_norm_multiplicative():
    rng = random.Random(104)
    for _ in range(1000):
        p = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 2.0)
        bound = 1e-12 * (1.0 + p.norm() * q.norm())
        assert abs((p * q).norm() - p.norm() * q.norm()) <= bound


def test_conj_antiautomorphism():
    rng = random.Random(105)
    for _ in range(1000):
        p = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 2.0)
        assert isclose((p * q).conj(), q.conj() * p.conj(), 1e-12)


def test_associativity():
    rng = random.Random(106)
    for _ in range(1000):
        p, q, r = (random_quaternion(rng, 1.5) for _ in range(3))
        assert isclose((p * q) * r, p * (q * r), 1e-12)


def test_similar_examples():
    assert similar(I, J)               # both Re 0, norm 1
    q = Quaternion(0.5, -1, 2, 0.25)
    assert similar(q, q)
    assert not similar(ONE, 2 * ONE, 1e-9)
    with pytest.raises(ValueError):
        similar(I, J, -1.0)


def test_similar_under_conjugation():
    rng = random.Random(107)
    for _ in range(200):
        q = random_quaternion(rng, 2.0)
        c = random_nonzero_quaternion(rng, 2.0)
        conjugated = c.inverse() * q * c
        assert similar(conjugated, q, 1e-10)
        # arg and the complex representative are class functions
        if q.norm() > 1e-3:
            assert abs(arg(conjugated) - arg(q)) <= 2e-9 / max(q.norm(), 1.0)
            r1 = complex_representative(conjugated)
            r2 = complex_representative(q)
            assert abs(r1[0] - r2[0]) < 1e-10 and abs(r1[1] - r2[1]) < 1e-10


def test_arg_examples():
    assert arg(ONE) == 0.0
    assert arg(I) == pytest.approx(math.pi / 2, abs=1e-15)
    # Re = 1, |q| = 2: acos(1/2)
    assert arg(Quaternion(1, 1, 1, 1)) == pytest.approx(math.pi / 3, abs=1e-15)
    assert arg(Quaternion(-2)) == pytest.approx(math.pi, abs=1e-15)
    with pytest.raises(ValueError):
        arg(ZERO)


def test_arg_matches_acos_oracle():
    rng = random.Random(108)
    for _ in range(300):
        q = random_nonzero_quaternion(rng, 2.0)
        expected = math.acos(max(-1.0, min(1.0, q.re / q.norm())))
        assert arg(q) == pytest.approx(expected, abs=1e-9)
        assert 0.0 <= arg(q) <= math.pi


def test_complex_representative_examples():
    assert complex_representative(Quaternion(1, 1, 1, 1)) == pytest.approx(
        (1.0, math.sqrt(3.0)))
    assert complex_representative(Quaternion(5)) == (5.0, 0.0)
    assert complex_representative(J) == (0.0, 1.0)


def test_json_round_trip():
    q = Quaternion(1.0, -0.12345678901234567, 3e-300, 2**-40)
    assert Quaternion.from_list(q.as_list()) == q
    assert Quaternion.from_list(tuple(q.as_list())) == q
    with pytest.raises(ValueError):
        Quaternion.from_list([1, 2, 3])
    for bad in (math.nan, math.inf, -math.inf, "nan", True):
        with pytest.raises(ValueError, match="finite"):
            Quaternion.from_list([1, bad, 0, 0])


def _from_list_oracle(coords) -> list[float]:
    """``Quaternion.from_list`` as it was before its coordinates were
    unpacked one by one, frozen here: the accepted values and the messages
    the current check must keep."""
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValueError("quaternion encoding must be a list of 4 coordinates")
    try:
        values = [float(c) for c in coords if type(c) in (int, float)]
    except OverflowError:           # an int beyond float range
        values = []
    if len(values) != 4 or not all(map(math.isfinite, values)):
        raise ValueError("quaternion coordinates must be finite numbers, "
                         f"got {reprlib.repr(coords)}")
    return values


def _decoded(decode, coords):
    """The coordinates' bits, or the ValueError message."""
    try:
        return [struct.pack("<d", c) for c in decode(coords)]
    except ValueError as exc:
        return str(exc)


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308)
_coordinate = st.one_of(
    st.floats(), st.sampled_from(_EDGE_FLOATS),
    st.integers(), st.sampled_from((10 ** 400, -10 ** 400, 2 ** 53 + 1)),
    st.booleans(), st.text(max_size=3), st.none(),
    st.lists(st.floats(), max_size=4))
_coords = st.lists(_coordinate, min_size=3, max_size=5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(_coords, _coords.map(tuple)))
@example([math.nan, 0, 0, 0])
@example((0, math.inf, 0, 0))
@example([0, 0, -math.inf, 0])
@example((1, 2, 3, math.nan))
@example((-0.0, 5e-324, -5e-324, 1))
@example([1e308, 1e308, 1e308, 1e308])    # finite, with an infinite sum
@example([10 ** 400, 0, 0, 0])
@example((0.5, 0, 0, -10 ** 400))
@example([2 ** 53 + 1, -7, 0, 3])
@example([1, True, 0, 0])
@example([0, 0, "1", 0])
@example([0, None, 0, 0])
@example([[1.0], 0, 0, 0])
@example([1, 2, 3])
@example((1, 2, 3, 4, 5))
@example("abcd")
def test_from_list_matches_its_frozen_oracle(coords):
    assert (_decoded(lambda c: Quaternion.from_list(c).as_list(), coords)
            == _decoded(_from_list_oracle, coords))


def test_arithmetic_results_are_ordinary_quaternions():
    # arithmetic builds results without the public constructor's coercion;
    # they must still be indistinguishable from publicly built instances
    q = Quaternion(1, 2, 3, 4)
    assert all(type(coord) is float for coord in q.as_list())
    assert json.dumps(q.as_list()) == "[1.0, 2.0, 3.0, 4.0]"
    p = Quaternion(0.5, -1, 2, 0.25)
    results = [q.im(), q.conj(), q + p, q + 1, 1 + q, q - p, q - 1, 1 - q, -q,
               q * p, q * 2, 2 * q, q / 2, q.inverse()]
    for r in results:
        assert type(r) is Quaternion
        assert all(type(coord) is float for coord in r.as_list())
        public = Quaternion(*r.as_list())
        assert r == public and hash(r) == hash(public) and repr(r) == repr(public)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.w = 0.0


def test_operands_without_a_rule_raise_type_error():
    q = Quaternion(1, 2, 3, 4)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(q, "x")
    # q1 / q2 is ambiguous in a noncommutative ring
    with pytest.raises(TypeError):
        Quaternion(1) / Quaternion(2)
    assert abs(q) == q.norm()


def test_default_tol_exposed():
    assert DEFAULT_TOL == 1e-9


def test_a_quaternion_holds_its_coordinate_tuple():
    q = Quaternion(1, -2.5, 0, 3)
    assert Quaternion.__slots__ == ("_c",) and Quaternion._fields == ("w", "x", "y", "z")
    assert q._c == (1.0, -2.5, 0.0, 3.0) and q._astuple is q._c
    assert (q.w, q.x, q.y, q.z, q.re) == (1.0, -2.5, 0.0, 3.0, 1.0)
    assert not any(hasattr(quat, f"_set_{name}") for name in "wxyz")
    for name in ("_mul", "_re_mul", "_norm2", "_conj", "_mul_add", "_conj_mul_conj",
                 "_re_cross", "_tau0_t0"):
        assert getattr(qmat, name) is getattr(quat, name), name


def _bits(coords) -> list[bytes]:
    return [struct.pack("<d", c) for c in coords]


# |x| in [0.5, 2] scaled by 1, 1e-14 or 1e6, either one scale per quaternion,
# whose products round so that a re-associated sum changes bits, or one per
# coordinate among ±0.0
_unit = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
_SCALES = (1.0, 1e-14, 1e6)
_fused_quaternion = (
    st.sampled_from(_SCALES).flatmap(
        lambda scale: st.tuples(*[_unit.map(lambda x: x * scale)] * 4))
    | st.tuples(*[st.sampled_from((0.0, -0.0))
                  | st.one_of(*(_unit.map(lambda x, scale=scale: x * scale)
                                for scale in _SCALES))] * 4))
_ZEROS = (0.0, -0.0, 0.0, -0.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(p=_fused_quaternion, q=_fused_quaternion, r=_fused_quaternion,
       s=_fused_quaternion)
@example(p=(1.0, 0.0, 0.0, 0.0), q=(-0.0,) * 4, r=(-0.0,) * 4, s=(0.0,) * 4)
@example(p=_ZEROS, q=_ZEROS[::-1], r=(0.0,) * 4, s=(-0.0,) * 4)
@example(p=(1e6, -0.0, 1e-14, 0.0), q=(-0.0, 1e-14, -1e6, 0.0),
         r=(0.0, -1e-14, -0.0, 1e6), s=(1e-14, 0.0, -0.0, -1e6))
@example(p=(-1e-14, 1e-14, -0.0, 0.0), q=(1e6, 1e6, -1e6, 1e6),
         r=(-0.0, -0.0, 1e-14, -1e-14), s=(0.0, -1e6, 0.0, -0.0))
def test_property_fused_kernels_are_bitwise_their_compositions(p, q, r, s):
    # _mul_add, _conj_mul_conj, _re_cross and _tau0_t0 are kept for speed;
    # each must give the bits of the formulas it fuses, signed zeros included
    # (the first example needs conj to negate, -0.0, where 0.0 - 0.0 would
    # give 0.0)
    assert (_bits(quat._mul_add(p, q, r, s))
            == _bits(quat._add(quat._mul(p, q), quat._mul(r, s))))
    assert (_bits(quat._conj_mul_conj(p, q, r))
            == _bits(quat._mul(quat._mul(quat._conj(p), q), quat._conj(r))))
    assert (_bits([quat._re_cross(p, q, r, s)])
            == _bits([quat._re_mul(quat._mul(quat._mul(p, quat._conj(q)), r),
                                   quat._conj(s))]))
    # tau0 and t0 of lam = p, eta = q, mu = r, u = s and v = s reversed
    v = s[::-1]
    tau0, t0 = quat._tau0_t0(p, q, r, s, v)
    assert _bits(tau0) == _bits(quat._add(quat._add(quat._mul(p, quat._neg(s)), q),
                                          quat._mul(s, r)))
    assert _bits(t0) == _bits(quat._sub(quat._add(quat._mul(p, v), q), quat._mul(v, r)))


# The four-slot Quaternion arithmetic as it was before a quaternion held its
# coordinate tuple, frozen here: verbatim but for the class and builder
# names. Every operation of the tuple-holding Quaternion must give the same
# bits in every coordinate, and the same error type.

class _FourSlot(_Frozen):
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

    def im(self) -> "_FourSlot":
        return _four_slot_q(0.0, self.x, self.y, self.z)

    def conj(self) -> "_FourSlot":
        return _four_slot_q(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __abs__(self) -> float:
        return self.norm()

    def __add__(self, other) -> "_FourSlot":
        if isinstance(other, _FourSlot):
            return _four_slot_q(self.w + other.w, self.x + other.x,
                                self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return _four_slot_q(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "_FourSlot":
        if isinstance(other, _FourSlot):
            return _four_slot_q(self.w - other.w, self.x - other.x,
                                self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return _four_slot_q(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other) -> "_FourSlot":
        return (-self).__add__(other)

    def __neg__(self) -> "_FourSlot":
        return _four_slot_q(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "_FourSlot":
        if isinstance(other, _FourSlot):
            pw, px, py, pz = self.w, self.x, self.y, self.z
            qw, qx, qy, qz = other.w, other.x, other.y, other.z
            return _four_slot_q(
                pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw,
            )
        if isinstance(other, (int, float)):
            return _four_slot_q(self.w * other, self.x * other,
                                self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other) -> "_FourSlot":
        # only reached for real scalars, which are central
        return self.__mul__(other)

    def __truediv__(self, other) -> "_FourSlot":
        if isinstance(other, (int, float)):
            return _four_slot_q(self.w / other, self.x / other,
                                self.y / other, self.z / other)
        # q1 / q2 is ambiguous in a noncommutative ring; be explicit:
        # p * q.inverse() or q.inverse() * p.
        return NotImplemented

    def inverse(self) -> "_FourSlot":
        """Multiplicative inverse conj(q) / |q|^2."""
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible quaternion")
        return _four_slot_q(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)


_new = object.__new__
_set_w = _FourSlot.w.__set__
_set_x = _FourSlot.x.__set__
_set_y = _FourSlot.y.__set__
_set_z = _FourSlot.z.__set__


def _four_slot_q(w: float, x: float, y: float, z: float) -> _FourSlot:
    q = _new(_FourSlot)
    _set_w(q, w)
    _set_x(q, x)
    _set_y(q, y)
    _set_z(q, z)
    return q


# name: the operation on (p, q, scalar), one class's values of each
_OPERATIONS = {
    "add": lambda p, q, s: p + q,
    "sub": lambda p, q, s: p - q,
    "mul": lambda p, q, s: p * q,
    "neg": lambda p, q, s: -p,
    "add_scalar": lambda p, q, s: p + s,
    "radd_scalar": lambda p, q, s: s + p,
    "sub_scalar": lambda p, q, s: p - s,
    "rsub_scalar": lambda p, q, s: s - p,
    "mul_scalar": lambda p, q, s: p * s,
    "rmul_scalar": lambda p, q, s: s * p,
    "div_scalar": lambda p, q, s: p / s,
    "conj": lambda p, q, s: p.conj(),
    "im": lambda p, q, s: p.im(),
    "inverse": lambda p, q, s: p.inverse(),
    "norm2": lambda p, q, s: p.norm2(),
    "norm": lambda p, q, s: p.norm(),
    "im_norm": lambda p, q, s: p.im_norm(),
}


def _outcome(operation, p, q, s):
    """The bits of each result coordinate (a float result is one), or the
    type of the error raised."""
    try:
        value = operation(p, q, s)
    except Exception as exc:
        return type(exc)
    coords = [value] if isinstance(value, float) else [value.w, value.x, value.y, value.z]
    return [(type(c), struct.pack("<d", c)) for c in coords]


_coordinates = st.tuples(*[st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))] * 4)
_scalars = st.one_of(st.floats(), st.integers(), st.sampled_from((0, 0.0, -0.0, 10 ** 400)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=_coordinates, q=_coordinates, s=_scalars)
@example(p=(-0.0, 5e-324, 1e308, 1.0), q=(1e308, -0.0, 5e-324, -1e308), s=1e308)
@example(p=(1e308, 1e308, 1e308, 1e308), q=(5e-324, 5e-324, -0.0, 0.0), s=5e-324)
@example(p=(0.0, -0.0, 0.0, -0.0), q=(0.0, 0.0, 0.0, 0.0), s=-0.0)
@example(p=(5e-324, 0.0, 0.0, 0.0), q=(1.5, -2.0, 0.25, 3.0), s=0)
@example(p=(1.0, 2.0, 3.0, 4.0), q=(-0.5, 0.5, -0.5, 0.5), s=10 ** 400)
@example(p=(math.nan, 1.0, -math.inf, 0.0), q=(math.inf, 0.0, -0.0, 1.0), s=math.inf)
def test_arithmetic_matches_the_frozen_four_slot_quaternion(p, q, s):
    new = (Quaternion(*p), Quaternion(*q), s)
    old = (_FourSlot(*p), _FourSlot(*q), s)
    for name, operation in _OPERATIONS.items():
        assert _outcome(operation, *new) == _outcome(operation, *old), name
