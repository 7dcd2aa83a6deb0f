import copy
import math
import pickle
import random

import pytest

from qmobius.quat import Quaternion, ZERO, ONE, I, J
from qmobius import qmat, moebius
from qmobius.moebius import (ALL_POINTS, INFINITY, IsometryClass, apply,
                             classify_normal_form, encode_point,
                             fixed_points_normal_form)
from qmobius.qmat import MatH2, diagonal, identity, upper_triangular
from conftest import (isclose, random_sigma, random_quaternion,
                      random_nonzero_quaternion, unit_complex)


def test_apply_examples():
    q = Quaternion(0.5, 1, -2, 0.25)
    assert apply(identity(), q) == q
    # translation by j
    assert apply(MatH2(ONE, J, ZERO, ONE), ZERO) == J
    # inversion Z -> Z^-1 maps i to -i
    swap = MatH2(ZERO, ONE, ONE, ZERO)
    assert isclose(apply(swap, I), -I, 1e-15)


def test_apply_infinity_and_poles():
    swap = MatH2(ZERO, ONE, ONE, ZERO)
    assert apply(swap, INFINITY) == ZERO
    assert apply(swap, ZERO) is INFINITY
    translation = MatH2(ONE, J, ZERO, ONE)
    assert apply(translation, INFINITY) is INFINITY
    with pytest.raises(ValueError):
        apply(MatH2(ZERO, ZERO, ZERO, ZERO), ZERO)


def test_apply_refuses_all_points():
    # ExtQuaternion admits ALL_POINTS, the identity's fixed-point set, but
    # it names no point to map: a domain error, even under the identity
    for m in (identity(), MatH2(ZERO, ONE, ONE, ZERO)):
        with pytest.raises(ValueError, match="set of points"):
            apply(m, ALL_POINTS)


def test_apply_group_action():
    rng = random.Random(301)
    checked = 0
    while checked < 100:
        m, n = random_sigma(rng), random_sigma(rng)
        z = random_quaternion(rng, 2.0)
        inner = apply(n, z)
        if inner is INFINITY:
            continue
        # avoid ill-conditioned poles for both routes
        if (n.c * z + n.d).norm() < 0.1 or (m.c * inner + m.d).norm() < 0.1:
            continue
        if ((m @ n).c * z + (m @ n).d).norm() < 0.1:
            continue
        lhs = apply(m @ n, z)
        rhs = apply(m, inner)
        assert lhs is not INFINITY and rhs is not INFINITY
        assert (lhs - rhs).norm() < 1e-8
        checked += 1


def test_apply_inverse_round_trip():
    rng = random.Random(302)
    checked = 0
    while checked < 100:
        m = random_sigma(rng)
        z = random_quaternion(rng, 2.0)
        w = apply(m, z)
        if w is INFINITY or (m.c * z + m.d).norm() < 0.1:
            continue
        back = apply(qmat.inverse(m), w)
        assert back is not INFINITY
        assert (back - z).norm() < 1e-8
        checked += 1


def test_classification_examples():
    elliptic = diagonal(unit_complex(math.pi / 3), unit_complex(-math.pi / 4))
    assert classify_normal_form(elliptic) is IsometryClass.ELLIPTIC
    stretch = diagonal(Quaternion(2), Quaternion(0.5))
    assert classify_normal_form(stretch) is IsometryClass.STRICTLY_HYPERBOLIC
    parabolic = upper_triangular(I, ONE, I)
    assert classify_normal_form(parabolic) is IsometryClass.PARABOLIC
    assert classify_normal_form(identity()) is IsometryClass.IDENTITY
    assert classify_normal_form(identity().scaled(-1.0)) is IsometryClass.IDENTITY


def test_classification_hyperbolic_nonreal():
    m = diagonal(Quaternion(0, 2), Quaternion(0, 0.5))
    assert classify_normal_form(m) is IsometryClass.HYPERBOLIC


def test_classification_rejections():
    # full matrix: honest unclassified
    rng = random.Random(303)
    while True:
        m = random_sigma(rng)
        if m.c.norm() > 0.1:
            break
    assert classify_normal_form(m) is IsometryClass.UNCLASSIFIED
    # not in the determinant-1 group
    assert classify_normal_form(diagonal(Quaternion(2), Quaternion(2))) \
        is IsometryClass.UNCLASSIFIED
    # similar but unequal diagonal entries with b != 0 fix a finite point,
    # so they are not the parabolic normal form
    almost = upper_triangular(I, ONE, -I)
    assert classify_normal_form(almost) is IsometryClass.UNCLASSIFIED
    fixed = apply(almost, I / 2)
    assert (fixed - I / 2).norm() < 1e-12


def test_classification_diagonal_conjugation_invariance():
    rng = random.Random(304)
    for theta in (0.4, 1.3):
        t = diagonal(unit_complex(theta), unit_complex(-theta))
        for _ in range(20):
            p = random_nonzero_quaternion(rng)
            q = random_nonzero_quaternion(rng)
            g = qmat.normalize_to_sigma(diagonal(p, q))
            conj = g @ t @ qmat.inverse(g)
            assert classify_normal_form(conj) is classify_normal_form(t)


def test_fixed_points():
    assert fixed_points_normal_form(diagonal(Quaternion(2), Quaternion(0.5))) \
        == [ZERO, INFINITY]
    assert fixed_points_normal_form(upper_triangular(I, ONE, I)) == [INFINITY]
    assert fixed_points_normal_form(identity()) is ALL_POINTS
    # similar diagonal entries: the plane {Z : lam Z = Z mu}, here spanned by
    # j and k, is fixed as well, and the listing stays the two points
    elliptic = diagonal(unit_complex(math.pi / 7), unit_complex(-math.pi / 7))
    assert fixed_points_normal_form(elliptic) == [ZERO, INFINITY]
    assert apply(elliptic, J) == J
    with pytest.raises(ValueError):
        fixed_points_normal_form(MatH2(ZERO, ONE, ONE, ZERO))


def test_map_fixing_infinity_has_no_finite_pole():
    # c = 0: however far out Z is, only infinity goes to infinity
    t = upper_triangular(ONE, ONE, ONE)
    for z in (Quaternion(1e13), Quaternion(0, 0, -1e13)):
        assert apply(t, z) == z + ONE
    # |c| = 1e-13 <= NONZERO_TOL with d = 0 (det 1): cZ + d = 0 exactly at Z = 0
    assert apply(MatH2(ZERO, Quaternion(1e13), Quaternion(1e-13), ZERO), ZERO) is INFINITY


def test_diagonal_fixes_zero_and_infinity():
    t = diagonal(Quaternion(2), Quaternion(0.5))
    assert apply(t, ZERO) == ZERO
    assert apply(t, INFINITY) is INFINITY


def test_point_json_encoding():
    assert encode_point(INFINITY) == "inf"
    assert encode_point(ALL_POINTS) == "all"
    assert encode_point(Quaternion(1, 2, 3, 4)) == [1.0, 2.0, 3.0, 4.0]


def test_sentinels_keep_name_and_identity():
    assert repr(INFINITY) == "INFINITY" and repr(ALL_POINTS) == "ALL_POINTS"
    assert INFINITY is not ALL_POINTS
    for sentinel in (INFINITY, ALL_POINTS):
        assert copy.copy(sentinel) is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel
