import math
import random

import pytest

from qmobius.quat import (Quaternion, ZERO, ONE, I, J, K, DEFAULT_TOL,
                          arg, complex_representative, isclose, similar)
from conftest import mul_oracle, random_quaternion, random_nonzero_quaternion


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
    with pytest.raises(ValueError):
        Quaternion.from_list([1, 2, 3])
    for bad in (math.nan, math.inf, -math.inf, "nan"):
        with pytest.raises(ValueError, match="finite"):
            Quaternion.from_list([1, bad, 0, 0])


def test_default_tol_exposed():
    assert DEFAULT_TOL == 1e-9
