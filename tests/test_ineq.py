import inspect
import math
import random
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmobius.quat import DEFAULT_TOL, Quaternion, ZERO, ONE, I, J
from qmobius import qmat, ineq
from qmobius.ineq import (Verdict, auto_select, beta_t, displacement_threshold,
                          eta_normalized_test, extremality_criteria,
                          hyperbolic_commutator_test, jg_test, jss2_test,
                          jss_test, jssc2_test, jlt_test, k_value,
                          kellerhals_form, non_extreme_tau_test, rez_test,
                          s_value, tau0_t0_upper, waterman_test)
from qmobius.qmat import MatH2, diagonal, lower_triangular, upper_triangular
from conftest import (check_report_invariants, displacement, isclose, j_flip,
                      mul_oracle, random_quaternion, random_sigma, random_unit_quaternion,
                      random_elliptic_entry, real_matrix, unit_complex)
import hurwitz

SQRT2 = math.sqrt(2.0)


def random_diagonal_sigma_entries(rng):
    """(lam, mu) with |lam| |mu| = 1 and random similarity classes."""
    lam = random_unit_quaternion(rng) * rng.uniform(0.5, 2.0)
    mu = random_unit_quaternion(rng) / lam.norm()
    return lam, mu


EXTREME_PAIR = (real_matrix(1, 0, 1, 1),
                upper_triangular(ONE, J, ONE))


def jg_regime_T(eta, t_par=0.001, kappa=0.9985,
                u=Quaternion(0, 0, 1, 0), v=Quaternion(0, 0, 0, 1)):
    """Upper-triangular T in the narrow band where the jg hypotheses hold."""
    cos_a = kappa * math.exp(t_par)
    cos_b = kappa * math.exp(-t_par)
    lam = (Quaternion(cos_a) + u * math.sqrt(1 - cos_a ** 2)) * math.exp(-t_par)
    mu = (Quaternion(cos_b) + v * math.sqrt(1 - cos_b ** 2)) * math.exp(t_par)
    return upper_triangular(lam, eta, mu)


# --- scalar forms -----------------------------------------------------------

def test_k_value_examples():
    assert k_value(ONE, ONE) == 0.0
    lam = unit_complex(math.pi / 3)
    assert k_value(lam, lam.conj()) == pytest.approx(3.0, abs=1e-12)


def test_k_value_cosh_identity():
    rng = random.Random(401)
    for _ in range(300):
        lam, mu = random_diagonal_sigma_entries(rng)
        tau = 2.0 * math.log(max(lam.norm(), mu.norm()))
        expected = 2.0 * (math.cosh(tau) - math.cos(
            math.acos(max(-1, min(1, lam.re / lam.norm())))
            + math.acos(max(-1, min(1, mu.re / mu.norm())))))
        assert k_value(lam, mu) == pytest.approx(expected, abs=1e-9)


def test_kellerhals_form_examples():
    lam = unit_complex(math.pi / 3)
    assert kellerhals_form(lam, lam.conj()) == pytest.approx(3.0, abs=1e-12)
    assert kellerhals_form(Quaternion(2), Quaternion(0.5)) == pytest.approx(
        2.25, abs=1e-12)


def test_k_forms_agree():
    rng = random.Random(402)
    for _ in range(300):
        lam, mu = random_diagonal_sigma_entries(rng)
        k = k_value(lam, mu)
        assert abs(k - kellerhals_form(lam, mu)) < 1e-9
        assert abs(k - beta_t(lam, mu)) < 1e-9


def test_beta_t_examples_and_sampling_bound():
    assert beta_t(Quaternion(3), Quaternion(3)) == 0.0
    lam = unit_complex(math.pi / 3)
    assert beta_t(lam, lam.conj()) == pytest.approx(3.0, abs=1e-12)
    # Monte-Carlo over the similarity class never beats the closed form
    rng = random.Random(403)
    lam, mu = random_diagonal_sigma_entries(rng)
    closed = beta_t(lam, mu)
    best = 0.0
    for _ in range(2000):
        e = random_unit_quaternion(rng)
        f = random_unit_quaternion(rng)
        sample = ((lam - e * mu * e.inverse()) * (lam - f * mu * f.inverse())).norm()
        best = max(best, sample)
    assert best <= closed + 1e-9


def test_s_value_examples():
    assert s_value(ONE, ONE) == 0.0
    assert s_value(I, I) == pytest.approx(2.0)
    rng = random.Random(404)
    for _ in range(100):
        lam, mu = random_diagonal_sigma_entries(rng)
        expected = max(lam.norm(), mu.norm()) * (lam.im_norm() + mu.im_norm())
        assert s_value(lam, mu) == pytest.approx(expected, abs=1e-12)


def test_displacement_threshold():
    assert displacement_threshold(0.0, ineq.EPS_GENERIC) == 1.0
    assert displacement_threshold(ineq.EPS_GENERIC, ineq.EPS_GENERIC) == 0.5
    assert displacement_threshold(0.25, 0.25) == 0.5


# --- displacement quantities ------------------------------------------------

def test_tau0_t0_extreme_example():
    s, t = EXTREME_PAIR
    tau0, t0 = tau0_t0_upper(s, t)
    assert isclose(tau0, J, 1e-15)
    assert isclose(t0, J, 1e-15)


def test_tau0_central_cancellation():
    # lam = mu and d = c make c^-1 d = 1, so tau0 collapses to eta
    lam = Quaternion(0.8, 0.1, 0, 0)
    eta = Quaternion(0.3, 0, 0.4, 0)
    t = upper_triangular(lam, eta, lam)
    s = MatH2(Quaternion(2), ONE, Quaternion(0.5, 0.5, 0, 0),
              Quaternion(0.5, 0.5, 0, 0))
    tau0, _ = tau0_t0_upper(s, t)
    assert isclose(tau0, eta, 1e-12)


def test_tau0_t0_second_implementation_oracle():
    rng = random.Random(405)
    for _ in range(100):
        s = random_sigma(rng)
        if s.c.norm() < 0.1:
            continue
        t = upper_triangular(random_unit_quaternion(rng),
                             random_unit_quaternion(rng),
                             random_unit_quaternion(rng))
        tau0, t0 = tau0_t0_upper(s, t)
        cinv = s.c.inverse()
        cinv_d = mul_oracle(cinv, s.d)
        a_cinv = mul_oracle(s.a, cinv)
        tau_oracle = mul_oracle(t.a, -cinv_d) + t.b + mul_oracle(cinv_d, t.d)
        t_oracle = mul_oracle(t.a, a_cinv) + t.b - mul_oracle(a_cinv, t.d)
        assert isclose(tau0, tau_oracle, 1e-12)
        assert isclose(t0, t_oracle, 1e-12)
        if s.b.norm() < 0.1:
            continue
        # the lower formulas: the lower reading, bitwise the upper reading
        # of the J-flipped pair
        t_lower = lower_triangular(t.a, t.b, t.d)
        lower = displacement(s, t_lower, "lower")
        assert (_reading_bits(lower)
                == _reading_bits(displacement(j_flip(s), j_flip(t_lower), "upper")))
        tau0, t0 = Quaternion(*lower[1]), Quaternion(*lower[2])
        binv = s.b.inverse()
        binv_a = mul_oracle(binv, s.a)
        d_binv = mul_oracle(s.d, binv)
        tau_oracle = mul_oracle(t.d, -binv_a) + t.b + mul_oracle(binv_a, t.a)
        t_oracle = mul_oracle(t.d, d_binv) + t.b - mul_oracle(d_binv, t.a)
        assert isclose(tau0, tau_oracle, 1e-12)
        assert isclose(t0, t_oracle, 1e-12)


def _reading_bits(reading):
    """The IEEE bit patterns of a :func:`qmat._displacement` result, None
    kept: NaN compares unequal to itself, its bits do not."""
    return tuple(None if v is None
                 else struct.pack("4d", *v) if isinstance(v, tuple)
                 else struct.pack("d", v) for v in reading)


def test_j_flip_is_conjugation_by_j():
    # J m J with J = [[0, 1], [1, 0]], by the matrix product, on finite
    # matrices: random Sigma elements, large, tiny and zero entries, and
    # signed zeros (the product may drop a zero's sign, == does not see it);
    # the lower reading of (m, n) is bit for bit the upper reading of
    # (J m J, J n J)
    j = MatH2(ZERO, ONE, ONE, ZERO)
    rng = random.Random(421)
    matrices = [random_sigma(rng) for _ in range(40)]
    matrices += [MatH2(*(random_quaternion(rng, scale) for _ in range(4)))
                 for scale in (1e-300, 1e-8, 1e8, 1e300)]
    matrices += [real_matrix(1, 0, 1, 1), real_matrix(0, 0, 0, 0),
                 MatH2(Quaternion(-0.0, 1.0, -0.0, 2.0), ZERO,
                       Quaternion(0.0, -0.0, 3.0, -0.0), Quaternion(-1.0))]
    for m, n in zip(matrices, matrices[1:] + matrices[:1]):
        assert j_flip(m) == j @ m @ j
        for side in ("upper", "lower"):
            other = "lower" if side == "upper" else "upper"
            assert (_reading_bits(displacement(m, n, side))
                    == _reading_bits(displacement(j_flip(m), j_flip(n), other)))


def test_tau0_t0_domain_errors():
    with pytest.raises(ValueError):
        tau0_t0_upper(real_matrix(1, 1, 0, 1), upper_triangular(ONE, J, ONE))
    # c = 0 on the upper side, b = 0 on the lower one (the shared fixed
    # point, met on the J-flip): no displacement quantities to read
    for s, t, side in ((real_matrix(1, 1, 0, 1), upper_triangular(ONE, J, ONE), "upper"),
                       (real_matrix(1, 0, 1, 1), lower_triangular(ONE, J, ONE), "lower")):
        assert (displacement(s, t, side)
                == (0.0, None, None, None, None, None))
    # one cutoff, at its boundary: a coupling whose norm reads NONZERO_TOL is
    # zero, the next float above it is not, for tau0_t0_upper as for
    # _displacement; the lower side reads b through the J-flip; a NaN
    # coupling is never a reading
    t = upper_triangular(unit_complex(0.3), Quaternion(0.5, 0, 1, 0), unit_complex(-0.2))
    above = math.nextafter(qmat.NONZERO_TOL, math.inf)
    for c in (qmat.NONZERO_TOL, above, math.nan):
        s = MatH2(Quaternion(2, 1), ONE, Quaternion(c), Quaternion(1, 0, 0.5))
        for m, n, side in ((s, t, "upper"), (j_flip(s), j_flip(t), "lower")):
            reading = displacement(m, n, side)
            if c == above:
                assert reading[0] == above
                tau0, t0 = tau0_t0_upper(s, t)
                assert _reading_bits(reading[1:3]) == _reading_bits((tau0._c, t0._c))
                continue
            assert reading[1:] == (None,) * 5
            assert reading[0] == c or math.isnan(c)
            with pytest.raises(ValueError, match="share a fixed point"):
                tau0_t0_upper(s, t)


# --- diagonal tests ---------------------------------------------------------

def test_jss_obstruction_example():
    lam = unit_complex(math.pi / 7)
    t = diagonal(lam, lam.conj())
    s = real_matrix(1, 0.1, 0.1, 1.01)
    report = jss_test(s, t)
    check_report_invariants(report)
    # independent recomputation of both factors
    k_oracle = 2.0 * (1.0 - math.cos(2.0 * math.pi / 7.0))
    assert report.diagnostics["K"] == pytest.approx(k_oracle, abs=1e-12)
    assert report.lhs == pytest.approx(k_oracle * 1.01, abs=1e-12)
    assert report.lhs < 1.0
    assert report.verdict is Verdict.OBSTRUCTION
    # the similarity caveat is recorded, not gating
    assert report.diagnostics["lambda_similar_mu"] == 1.0
    assert report.preconditions_met


def test_jss_extremal_by_construction():
    rng = random.Random(406)
    for _ in range(20):
        angle = rng.uniform(0.05, math.pi / 6 - 0.01)
        lam = random_elliptic_entry(rng, angle)
        mu = random_elliptic_entry(rng, angle)
        k = k_value(lam, mu)
        assert k < 1.0
        s_norm = math.sqrt((1.0 - k) / k)
        b = Quaternion(s_norm)
        c = Quaternion(s_norm)
        a = ONE
        d = ONE + c * b
        s = MatH2(a, b, c, d)
        assert abs(qmat.det(s) - 1.0) < 1e-12
        report = jss_test(s, diagonal(lam, mu))
        check_report_invariants(report)
        assert report.verdict is Verdict.EXTREMAL


def test_jss_shape_gate():
    s = real_matrix(1, 0, 1, 1)
    t = upper_triangular(ONE, J, ONE)    # not diagonal
    report = jss_test(s, t)
    check_report_invariants(report)
    assert not report.preconditions_met
    assert report.verdict is Verdict.INCONCLUSIVE


def test_jssc2_matches_jss_and_jss2_is_weaker():
    rng = random.Random(407)
    for _ in range(100):
        lam, mu = random_diagonal_sigma_entries(rng)
        t = diagonal(lam, mu)
        s = random_sigma(rng)
        r_jss = jss_test(s, t)
        r_c2 = jssc2_test(s, t)
        r_2 = jss2_test(s, t)
        for rep in (r_jss, r_c2, r_2):
            check_report_invariants(rep)
        assert r_c2.lhs == pytest.approx(r_jss.lhs, abs=1e-9)
        assert r_2.lhs >= r_jss.lhs - 1e-12
        assert r_2.diagnostics["k"] >= 2.0
        assert r_2.diagnostics["L"] > 1.0


def test_jss2_floor_arithmetic():
    s = real_matrix(1, 0.1, 0.1, 1.01)   # |bc| = 0.01 -> k = 2
    t = diagonal(unit_complex(0.3), unit_complex(-0.3))
    report = jss2_test(s, t)
    assert report.diagnostics["k"] == 2.0
    assert report.diagnostics["L"] == pytest.approx(2.0, abs=1e-12)


def test_jss2_weaker_on_obstruction_example():
    # the sharp test obstructs while the weaker one stays above 1
    lam = unit_complex(math.pi / 7)
    t = diagonal(lam, lam.conj())
    s = real_matrix(1, 0.1, 0.1, 1.01)
    sharp = jss_test(s, t)
    weak = jss2_test(s, t)
    assert sharp.lhs < 1.0
    assert weak.lhs >= 1.0
    assert weak.verdict is Verdict.INCONCLUSIVE


# --- strictly hyperbolic commutator test ------------------------------------

def test_jh_term_values():
    a = diagonal(Quaternion(2), Quaternion(0.5))
    report = hyperbolic_commutator_test(a, qmat.identity())
    check_report_invariants(report)
    assert report.diagnostics["term_A"] == pytest.approx(2.25, abs=1e-12)
    assert report.diagnostics["term_commutator"] == pytest.approx(0.0, abs=1e-12)
    assert not report.preconditions_met          # c = 0 in B
    assert report.diagnostics["commutator_hyperbolicity_unverified"] == 1.0


def test_jh_real_entry_identity():
    # for real B in Sigma the whole lhs collapses to (k - 1/k)^2 (1 + |bc|)
    rng = random.Random(408)
    a = diagonal(Quaternion(2), Quaternion(0.5))
    count = 0
    while count < 50:
        raw = real_matrix(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(-2, 2), rng.uniform(-2, 2))
        if qmat.det(raw) < 0.3:
            continue
        b = qmat.normalize_to_sigma(raw)
        if b.c.norm() < 0.1:
            continue
        report = hyperbolic_commutator_test(a, b)
        check_report_invariants(report)
        bc = b.b.norm() * b.c.norm()
        assert report.lhs == pytest.approx(2.25 * (1.0 + bc), abs=1e-8)
        count += 1


def test_jh_shape_gate():
    a = diagonal(Quaternion(0, 2), Quaternion(0, 0.5))   # not real
    rng = random.Random(409)
    b = random_sigma(rng)
    report = hyperbolic_commutator_test(a, b)
    assert not report.preconditions_met
    assert report.verdict is Verdict.INCONCLUSIVE


# --- upper-triangular tests -------------------------------------------------

def test_rez_extreme_example():
    s, t = EXTREME_PAIR
    report = rez_test(s, t)
    check_report_invariants(report)
    assert report.verdict is Verdict.EXTREMAL
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.threshold == pytest.approx(1.0, abs=1e-12)
    assert abs(report.margin) < 1e-12


def test_rez_extreme_family_arbitrary_c():
    # S = [[1,0],[c,1]], T = [[1, c^-1 j],[0,1]] is extremal for every c != 0:
    # tau0 = t0 = c^-1 j, so |c| sqrt(|tau0||t0|) = 1
    rng = random.Random(415)
    for _ in range(25):
        c = random_unit_quaternion(rng) * rng.uniform(0.5, 3.0)
        s = MatH2(ONE, ZERO, c, ONE)
        t = upper_triangular(ONE, c.inverse() * J, ONE)
        tau0, t0 = tau0_t0_upper(s, t)
        assert isclose(tau0, c.inverse() * J, 1e-12)
        assert isclose(t0, c.inverse() * J, 1e-12)
        report = rez_test(s, t)
        check_report_invariants(report)
        assert report.verdict is Verdict.EXTREMAL
        # the eta-normalized reading scales lhs and threshold alike
        normalized = eta_normalized_test(s, t)
        check_report_invariants(normalized)
        assert normalized.verdict is Verdict.EXTREMAL


def test_rez_obstruction_by_scaling_c():
    t = upper_triangular(ONE, J, ONE)
    s = MatH2(ONE, ZERO, Quaternion(0.5), ONE)
    report = rez_test(s, t)
    check_report_invariants(report)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.verdict is Verdict.OBSTRUCTION


def test_rez_threshold_formula():
    # S = 1/4 exactly halves the threshold
    assert displacement_threshold(0.25, ineq.EPS_PURE_IMAGINARY) == 0.5


def test_rez_gate_requires_common_real_part():
    t = upper_triangular(unit_complex(0.2), J, unit_complex(-0.2))
    s = real_matrix(1, 0, 1, 1)
    report = rez_test(s, t)
    assert not report.preconditions_met


def test_jg_regime_pair():
    t = jg_regime_T(Quaternion(0.3, 0.1, 0, 0))
    s = real_matrix(1, 0, 1, 1)
    report = jg_test(s, t)
    check_report_invariants(report)
    assert report.preconditions_met
    assert report.diagnostics["S_value"] <= ineq.EPS_GENERIC
    # recompute lhs independently
    tau0, t0 = tau0_t0_upper(s, t)
    assert report.lhs == pytest.approx(
        s.c.norm() * math.sqrt(tau0.norm() * t0.norm()), abs=1e-12)
    assert report.threshold == pytest.approx(
        (1.0 + math.sqrt(1.0 - 4.0 * SQRT2 * report.diagnostics["S_value"])) / 2.0,
        abs=1e-12)


def test_jg_gates():
    s = real_matrix(1, 0, 1, 1)
    # Re lambda = Re mu = 0 belongs to rez, not jg
    report = jg_test(s, upper_triangular(I, J, I))
    assert not report.preconditions_met
    # the unipotent translation case has Re = 1 != 0 and S = 0: jg applies
    assert jg_test(s, upper_triangular(ONE, J, ONE)).preconditions_met
    # S too large
    big = upper_triangular(unit_complex(1.0), J, unit_complex(-1.0))
    report = jg_test(s, big)
    assert not report.preconditions_met


def test_eta_normalized_reduces_to_jg_at_unit_eta():
    t = jg_regime_T(J)    # |eta| = 1
    s = real_matrix(1, 0, 1, 1)
    plain = jg_test(s, t)
    normalized = eta_normalized_test(s, t)
    check_report_invariants(normalized)
    assert normalized.lhs == pytest.approx(plain.lhs, abs=1e-12)
    assert normalized.threshold == pytest.approx(plain.threshold, abs=1e-12)


def test_eta_normalized_ratio_identity():
    rng = random.Random(410)
    for _ in range(20):
        eta = Quaternion(*(rng.uniform(-1, 1) for _ in range(4)))
        if eta.norm() < 0.1:
            continue
        t = jg_regime_T(eta)
        s = real_matrix(1, 0, 1, 1)
        plain = jg_test(s, t)
        normalized = eta_normalized_test(s, t)
        assert (normalized.lhs / normalized.threshold ==
                pytest.approx(plain.lhs / plain.threshold, abs=1e-9))


def test_eta_normalized_zero_coupling_is_a_failed_gate():
    s = real_matrix(1, 0.5, 0, 1)
    normalized = eta_normalized_test(s, upper_triangular(ONE, J, ONE))
    check_report_invariants(normalized)
    assert normalized.lhs == 0.0
    assert normalized.diagnostics["c_zero"] == 1.0
    assert not normalized.preconditions_met


def test_eta_normalized_zero_eta_raises():
    with pytest.raises(ValueError):
        eta_normalized_test(real_matrix(1, 0, 1, 1),
                            upper_triangular(ONE, ZERO, ONE))


def test_waterman_unipotent_extreme():
    s = real_matrix(1, 0, 1, 1)
    t = upper_triangular(ONE, ONE, ONE)
    report = waterman_test(s, t)
    check_report_invariants(report)
    # both Moebius displacements have norm 1 here
    assert report.diagnostics["displacement_1"] == pytest.approx(1.0, abs=1e-12)
    assert report.diagnostics["displacement_2"] == pytest.approx(1.0, abs=1e-12)
    assert report.verdict is Verdict.EXTREMAL
    assert report.threshold == 1.0


def test_waterman_threshold_at_cap():
    disc_zero = (1.0 + math.sqrt(1.0 - 8.0 * 0.125)) / 2.0
    assert disc_zero == 0.5


def test_waterman_matches_rez_lhs():
    # the left-hand sides agree for every unit lam, not only |Im lam| <= 1/8
    rng = random.Random(411)
    checked = 0
    while checked < 500:
        lam = random_unit_quaternion(rng)
        t = upper_triangular(lam, ONE, lam)
        s = random_sigma(rng)
        if s.c.norm() < 0.1:
            continue
        lhs = waterman_test(s, t).lhs
        assert abs(lhs - rez_test(s, t).lhs) <= 1e-12 * max(1.0, lhs)
        checked += 1


def test_waterman_gate():
    s = real_matrix(1, 0, 1, 1)
    t = upper_triangular(ONE, J, ONE)   # eta != 1
    report = waterman_test(s, t)
    assert not report.preconditions_met


# --- lower-triangular test --------------------------------------------------

def test_jlt_mirror_extreme_example():
    # flip of the extreme pair: roles of b and c exchanged
    s = real_matrix(1, 1, 0, 1)
    t = lower_triangular(ONE, J, ONE)
    printed = jlt_test(s, t)
    check_report_invariants(printed)
    assert printed.diagnostics["lhs_printed"] == pytest.approx(0.0, abs=1e-15)
    assert printed.diagnostics["lhs_b_variant"] == pytest.approx(1.0, abs=1e-12)
    b_form = ineq._jlt_b_form(s, t, DEFAULT_TOL)
    assert b_form.verdict is Verdict.EXTREMAL
    assert abs(b_form.margin) < 1e-12


def test_jlt_threshold_branches():
    # kappa != 0 uses the 1/(4 sqrt 2) budget, kappa = 0 the 1/4 budget
    s = real_matrix(1, 1, 0, 1)
    t = lower_triangular(ONE, J, ONE)
    assert jlt_test(s, t).diagnostics["eps"] == pytest.approx(ineq.EPS_GENERIC)
    t0 = lower_triangular(I, J, I)
    assert jlt_test(s, t0).diagnostics["eps"] == pytest.approx(0.25)


def test_jlt_b_zero_is_a_failed_gate():
    # b = 0: S and T share the fixed point 0, the mirror of jg's c = 0
    for form in (jlt_test, ineq._jlt_b_form):
        report = form(real_matrix(1, 0, 1, 1), lower_triangular(ONE, J, ONE),
                      DEFAULT_TOL)
        check_report_invariants(report)
        assert not report.preconditions_met
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.lhs == 0.0
        assert report.diagnostics["b_zero"] == 1.0


_unit_coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_quaternions = st.builds(Quaternion, _unit_coord, _unit_coord, _unit_coord, _unit_coord)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(entries=st.tuples(_quaternions, _quaternions, _quaternions, _quaternions),
       b_zero=st.booleans(),
       # |kappa| near 1 with |tau| small keeps S(lam, mu) inside the jg budget
       kappa=st.one_of(st.floats(0.995, 1.0), st.floats(-1.0, -0.995),
                       _unit_coord, st.just(0.0)),
       tau=st.one_of(st.floats(-0.005, 0.005), _unit_coord),
       u=_quaternions, v=_quaternions, eta=_quaternions)
def test_property_jlt_is_the_j_flip_of_jg_and_rez(entries, b_zero, kappa, tau,
                                                   u, v, eta):
    a, b, c, d = entries
    m = MatH2(a, ZERO if b_zero else b, c, d)
    assume(qmat.det(m) > 0.1)
    s = qmat.normalize_to_sigma(m)
    # lam = e^-tau (cos x + u sin x), mu = e^tau (cos y + v sin y): |lam| |mu| = 1
    # and Re lam = Re mu = kappa exactly
    assume(abs(kappa) * math.exp(abs(tau)) <= 1.0)
    u, v = u.im(), v.im()
    assume(u.norm() > 0.1 and v.norm() > 0.1)
    sin_x = math.sqrt(1.0 - (kappa * math.exp(tau)) ** 2)
    sin_y = math.sqrt(1.0 - (kappa * math.exp(-tau)) ** 2)
    t = lower_triangular(Quaternion(kappa) + u * (math.exp(-tau) * sin_x / u.norm()),
                         eta,
                         Quaternion(kappa) + v * (math.exp(tau) * sin_y / v.norm()))
    mirrored = ineq._jlt_b_form(s, t, DEFAULT_TOL)
    upper_test = jg_test if abs(kappa) > ineq.DEFAULT_TOL else rez_test
    reference = upper_test(j_flip(s), j_flip(t))
    assert ((mirrored.lhs, mirrored.threshold, mirrored.verdict,
             mirrored.preconditions_met)
            == (reference.lhs, reference.threshold, reference.verdict,
                reference.preconditions_met))


def test_hurwitz_elementary_diagonal_pairs_are_never_decided():
    # a Hurwitz word S with b = 0 (or c = 0) fixes 0 (or infinity), as a
    # diagonal T of units does: the pair is elementary, so the diagonal family
    # must not read it as an obstruction or as the extreme-group signature
    rng = random.Random(0)
    pairs = 0
    for _ in range(2000):
        s = hurwitz.word(rng)
        t = diagonal(rng.choice(hurwitz.UNITS), rng.choice(hurwitz.UNITS))
        zero = {"b_zero": s.b.norm2() == 0.0, "c_zero": s.c.norm2() == 0.0}
        if not any(zero.values()):
            continue
        pairs += 1
        for name in ("jss", "jssc2", "jss2", "extreme"):
            report = ineq.TESTS[name](s, t)
            assert report.verdict is Verdict.INCONCLUSIVE, name
            assert not report.preconditions_met, name
            assert {flag: flag in report.diagnostics for flag in zero} == zero, name
            assert "inconsistency" not in report.diagnostics, name
    assert pairs > 900


def test_hurwitz_shimizu_equality_is_exact_on_units():
    # S in the Hurwitz group with c != 0 and T = [[1, eta], [0, 1]], eta a
    # nonzero Hurwitz integer: the rez lhs is |c| |eta| >= 1 (Shimizu), and
    # Hurwitz norms are integers, so the pair is extremal exactly when c and
    # eta are units and otherwise has a margin of at least sqrt(2) - 1
    rng = random.Random(0)
    pairs = units = 0
    for _ in range(4000):
        s = hurwitz.word(rng)
        if s.c.norm2() == 0.0:
            continue
        eta = hurwitz.nonzero_hurwitz_integer(rng)
        report = rez_test(s, upper_triangular(ONE, eta, ONE))
        pairs += 1
        if s.c.norm2() * eta.norm2() == 1.0:
            units += 1
            assert report.verdict is Verdict.EXTREMAL and report.lhs == 1.0
        else:
            assert report.margin >= SQRT2 - 1.0, (s, eta)
    assert pairs > 2500 and units > 10


# every selector and the b-form of jlt; the printed jlt is left out: its
# lhs multiplies by |c| of S and reads false obstructions on this group
# (ROADMAP item 1)
_SOUND_SELECTORS = {**{name: fn for name, fn in ineq.TESTS.items() if name != "jlt"},
                    "jlt_b_form": ineq._jlt_b_form}


def test_hurwitz_pairs_are_never_an_obstruction():
    # the Hurwitz group is discrete, so an obstruction is false unless the
    # group is elementary; T = +-I is the one elementary case that the
    # coupling gates do not catch
    pairs = 0
    for s, t in hurwitz.pairs(random.Random(0), 1100):
        if t._coords in hurwitz.PLUS_MINUS_I:
            continue
        pairs += 1
        for name, evaluate in _SOUND_SELECTORS.items():
            report = evaluate(s, t, DEFAULT_TOL)
            assert report.verdict is not Verdict.OBSTRUCTION, (name, s, t)
    assert pairs > 1000


def test_hurwitz_verdicts_survive_diagonal_conjugation():
    # D = diag(r, 1/r) with r > 0 keeps the group discrete and every shape,
    # and rounds the entries of the conjugated pair: no verdict may move.
    # wat's normal form [[lam, 1], [0, lam]] is not a shape: D sends eta = 1
    # to r^2, a failed gate, so its verdict may only fall to inconclusive
    rng = random.Random(1)
    for s, t in hurwitz.pairs(random.Random(0), 1100):
        r = rng.uniform(0.3, 3.0)
        d, d_inv = (diagonal(Quaternion(r), Quaternion(1.0 / r)),
                    diagonal(Quaternion(1.0 / r), Quaternion(r)))
        s_r, t_r = d @ s @ d_inv, d @ t @ d_inv
        for name, evaluate in _SOUND_SELECTORS.items():
            conjugated = evaluate(s_r, t_r, DEFAULT_TOL)
            if name == "wat" and not conjugated.preconditions_met:
                assert conjugated.verdict is Verdict.INCONCLUSIVE
                continue
            assert (conjugated.verdict
                    is evaluate(s, t, DEFAULT_TOL).verdict), (name, s, t, r)


@pytest.mark.parametrize("names, t, gated, coupled_met", [
    (("jss", "jssc2", "jss2", "extreme"),
     diagonal(unit_complex(math.pi / 7), unit_complex(-math.pi / 7)), "bc", True),
    (("jh",), diagonal(Quaternion(2.0), Quaternion(0.5)), "c", True),
    (("jg", "rez"), upper_triangular(ONE, J, ONE), "c", True),
    (("wat",), upper_triangular(ONE, ONE, ONE), "c", True),
    (("jlt",), lower_triangular(ONE, J, ONE), "b", True),
    # a diagonal T that fails other gates of these selectors too
    (("jg", "rez", "wat"), diagonal(I, -I), "c", False),
    (("jlt",), diagonal(I, -I), "b", False),
], ids=["diagonal", "jh", "upper", "wat", "lower", "diagonal-c", "diagonal-b"])
def test_every_selector_flags_a_zero_coupling(names, t, gated, coupled_met):
    # a coupling entry that is exactly zero is a failed gate with its flag,
    # whatever the other gates say; with both entries nonzero there is no
    # flag, and where T passes the other gates, the preconditions hold
    coupled = real_matrix(1, 1, 1, 2)
    for name in names:
        report = ineq.TESTS[name](coupled, t)
        assert not {"b_zero", "c_zero"} & report.diagnostics.keys(), name
        assert report.preconditions_met is coupled_met, name
        for entry in gated:
            s = real_matrix(1, 0, 1, 1) if entry == "b" else real_matrix(1, 1, 0, 1)
            report = ineq.TESTS[name](s, t)
            check_report_invariants(report)
            assert not report.preconditions_met, (name, entry)
            assert report.verdict is Verdict.INCONCLUSIVE, (name, entry)
            assert report.diagnostics[f"{entry}_zero"] == 1.0, (name, entry)


def test_every_test_is_invariant_under_diagonal_conjugation():
    # D = diag(u, v) with unit u, v fixes 0 and infinity, keeps T's shape and
    # both determinants, and carries each displacement by an isometry. wat's
    # normal form [[lam, 1], [0, lam]] is kept only when u = v.
    rng = random.Random(417)
    met = dict.fromkeys(ineq.TESTS, 0)
    for _ in range(30):
        s = random_sigma(rng)
        lam, mu = random_diagonal_sigma_entries(rng)
        k = rng.uniform(1.2, 3.0)
        eta = random_quaternion(rng)
        one = Quaternion(rng.choice((1.0, -1.0)))
        elliptic = random_elliptic_entry(rng, rng.uniform(0.0, math.asin(0.125)))
        ts = [diagonal(lam, mu), diagonal(Quaternion(k), Quaternion(1.0 / k)),
              jg_regime_T(eta), upper_triangular(one, eta, one),
              upper_triangular(elliptic, ONE, elliptic)]
        ts += [j_flip(t) for t in ts[2:4]]
        u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
        for name, evaluate in ineq.TESTS.items():
            w = u if name == "wat" else v
            dmat, dinv = diagonal(u, w), diagonal(u.conj(), w.conj())
            for t in ts:
                before = evaluate(s, t)
                after = evaluate(dmat @ s @ dinv, dmat @ t @ dinv)
                assert after.verdict is before.verdict, name
                assert after.preconditions_met == before.preconditions_met, name
                # 1e-12 relative; an lhs whose terms cancel to exactly 0
                # comes back as rounding residue (up to about 7e-16 here)
                drift = abs(after.lhs - before.lhs)
                assert drift <= 1e-12 * abs(before.lhs) + 1e-14, name
                met[name] += before.preconditions_met
    assert min(met.values()) > 0, met


def test_every_test_gates_both_determinants():
    # S or T scaled to det 1 + 3 tol fails the determinant-1 gate alone: at
    # det 1 + tol/2 every gate holds. wat's |lam| = 1 and jh's A = diag(k, 1/k)
    # already bound det T within about 2 tol, so only S is scaled there
    tol = DEFAULT_TOL
    s = real_matrix(1, 1, 1, 2)
    upper, lower = upper_triangular(ONE, ONE, ONE), lower_triangular(ONE, ONE, ONE)
    ts = {"jg": upper, "rez": upper, "wat": upper, "jlt": lower}

    def scaled(m, r):
        return MatH2(*(entry * r for entry in m.entries()))

    for name, evaluate in ineq.TESTS.items():
        t = ts.get(name, diagonal(Quaternion(2), Quaternion(0.5)))
        for drift, met in ((0.5 * tol, True), (3.0 * tol, False)):
            r = math.sqrt(1.0 + drift)
            assert evaluate(scaled(s, r), t, tol=tol).preconditions_met is met, name
            if name not in ("wat", "jh"):
                assert evaluate(s, scaled(t, r), tol=tol).preconditions_met is met, name


def test_waterman_gates_det_t():
    # lam, mu and |lam| each within tol of 1, but det T = 1 + 2.7 tol
    t = upper_triangular(Quaternion(1.0000000009), ONE, Quaternion(1.0000000018))
    report = waterman_test(real_matrix(1, 0, 0.1, 1), t)
    check_report_invariants(report)
    assert report.diagnostics["det_T"] == pytest.approx(1.0000000027, abs=1e-15)
    assert not report.preconditions_met
    assert report.verdict is Verdict.INCONCLUSIVE


# --- extremality criteria ---------------------------------------------------

def test_extremality_criteria_extreme_elliptic():
    rng = random.Random(412)
    angle = 0.2
    lam = random_elliptic_entry(rng, angle)
    mu = random_elliptic_entry(rng, angle)
    k = k_value(lam, mu)
    s_norm = math.sqrt((1.0 - k) / k)
    s = MatH2(ONE, Quaternion(s_norm), Quaternion(s_norm),
              ONE + Quaternion(s_norm * s_norm))
    report = extremality_criteria(s, diagonal(lam, mu))
    check_report_invariants(report)
    assert report.verdict is Verdict.EXTREMAL
    assert report.diagnostics["elliptic"] == 1.0
    assert report.diagnostics["angle_sum"] < math.pi / 3
    assert report.diagnostics["order_bound"] >= 7.0


def test_extremality_criteria_cot_value():
    # angle sum pi/4: cot^2(pi/8) - 3 = 2 sqrt(2) - ... = 2.8284...
    half = math.pi / 8
    cot2 = (math.cos(half) / math.sin(half)) ** 2
    assert cot2 - 3.0 == pytest.approx(2.8284271247461903, abs=1e-12)


def test_extremality_criteria_not_extreme():
    t = diagonal(unit_complex(math.pi / 6), unit_complex(-math.pi / 6))
    s = real_matrix(1, 1, 0.5, 1.5)
    report = extremality_criteria(s, t)
    check_report_invariants(report)
    assert report.verdict is Verdict.NOT_EXTREME
    assert report.diagnostics["ad_deviation"] > report.diagnostics["cot_criterion"]


def test_extremality_criteria_non_elliptic_equality_never_certified():
    k_entry = 1.1
    lam = Quaternion(k_entry)
    mu = Quaternion(1 / k_entry)
    k = k_value(lam, mu)
    assert k < 1.0
    s_norm = math.sqrt((1.0 - k) / k)
    s = MatH2(ONE, Quaternion(s_norm), Quaternion(s_norm),
              ONE + Quaternion(s_norm * s_norm))
    report = extremality_criteria(s, diagonal(lam, mu))
    check_report_invariants(report)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.diagnostics["non_elliptic_equality"] == 1.0


def test_extremality_criteria_not_extreme_overrides_jss_equality():
    # angle sum just above pi/3: jss reads the pair extremal, but the
    # cotangent criterion is negative, so |ad| - 1 exceeds it and the pair
    # is not extreme; the disagreement is flagged as an inconsistency
    half = (math.pi / 3 + 3e-8) / 2
    t = diagonal(unit_complex(half), unit_complex(-half))
    s = MatH2(ONE, Quaternion(1e-5), Quaternion(1e-5), Quaternion(1 + 1e-10))
    assert jss_test(s, t).verdict is Verdict.EXTREMAL
    report = extremality_criteria(s, t)
    check_report_invariants(report)
    assert report.verdict is Verdict.NOT_EXTREME
    assert report.diagnostics["inconsistency"] == 1.0
    assert report.diagnostics["cot_criterion"] < 0.0
    assert report.diagnostics["order_bound"] == 6.0


def test_extremality_criteria_angle_inconsistency():
    t = diagonal(unit_complex(math.pi / 6), unit_complex(-math.pi / 6))
    # non-elementary, |bc| = eps^2 and K = 1: equality with angle sum pi/3
    eps = 1e-4
    s = MatH2(ONE, Quaternion(eps), Quaternion(eps), Quaternion(1.0 + eps * eps))
    report = extremality_criteria(s, t)
    assert report.diagnostics.get("inconsistency") == 1.0
    assert report.verdict is Verdict.INCONCLUSIVE


def test_extremality_criteria_hyperbolic_never_extremal():
    rng = random.Random(413)
    for _ in range(50):
        r = rng.uniform(2.0, 4.0)
        lam = random_unit_quaternion(rng) * r
        mu = random_unit_quaternion(rng) / r
        assert k_value(lam, mu) > 1.0
        report = jss_test(random_sigma(rng), diagonal(lam, mu))
        assert report.verdict is not Verdict.EXTREMAL


# --- non-extremeness via displacement asymmetry ------------------------------

def test_non_extreme_tau_extreme_pair_is_inconclusive():
    s, t = EXTREME_PAIR
    report = non_extreme_tau_test(s, t, "upper")
    check_report_invariants(report)
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert report.verdict is Verdict.INCONCLUSIVE


def test_non_extreme_tau_vanishes_for_real_entries():
    rng = random.Random(414)
    lam = Quaternion(0.9)
    mu = Quaternion(1 / 0.9)
    t = upper_triangular(lam, Quaternion(0.3), mu)
    for _ in range(20):
        s = random_sigma(rng)
        if s.c.norm() < 0.1:
            continue
        tau0, t0 = tau0_t0_upper(s, t)
        # tau0 - t0 is built from the imaginary parts only
        diff = (tau0 - t0) - (t.b - t.b)
        expected = -(lam * (s.c.inverse() * s.d + s.a * s.c.inverse())) \
            + (s.c.inverse() * s.d + s.a * s.c.inverse()) * mu
        assert isclose(tau0 - t0, expected, 1e-9)


def test_non_extreme_tau_trigger():
    # tau0 nearly cancels: lhs blows up past |conj(c) d + a conj(c)|
    eta = Quaternion(0, 0.01, 0, 2)    # 2k + 0.01i
    t = upper_triangular(I, eta, I)
    s = MatH2(ONE, ZERO, ONE, J)
    report = non_extreme_tau_test(s, t, "upper")
    check_report_invariants(report)
    assert report.verdict is Verdict.NOT_EXTREME
    assert report.lhs > report.threshold


def test_non_extreme_tau_lower_side():
    s = real_matrix(1, 1, 0, 1)
    t = lower_triangular(ONE, J, ONE)
    report = non_extreme_tau_test(s, t, "lower")
    check_report_invariants(report)
    assert report.lhs == pytest.approx(0.0, abs=1e-15)
    assert report.verdict is Verdict.INCONCLUSIVE
    with pytest.raises(ValueError):
        non_extreme_tau_test(s, t, "sideways")


def test_non_extreme_tau_lower_gates_the_pair_as_given():
    # the determinants are those of S and T, not of their J-flips, whose
    # alpha differs from theirs in the last bits for about a quarter of draws
    rng = random.Random(5)
    t = lower_triangular(ONE, Quaternion(0, 0.3, 0.2, 0.1), ONE)
    for _ in range(2000):
        s = random_sigma(rng)
        tau_diag = non_extreme_tau_test(s, t, "lower").diagnostics
        jlt_diag = jlt_test(s, t).diagnostics
        assert (tau_diag["det_S"], tau_diag["det_T"], tau_diag["S_value"]) \
            == (jlt_diag["det_S"], jlt_diag["det_T"], jlt_diag["S_value"])


def test_non_extreme_degenerate_displacement():
    # tau0 = 0 exactly: eta cancels the diagonal contribution
    t = upper_triangular(ONE, ZERO, ONE)
    s = real_matrix(1, 0, 1, 1)
    report = non_extreme_tau_test(s, t, "upper")
    assert report.diagnostics["degenerate_displacement"] == 1.0
    assert report.verdict is Verdict.INCONCLUSIVE


def test_non_extreme_tau_zero_coupling_is_a_failed_gate():
    # S = I shares every fixed point with T: there is no displacement quotient
    for side, t, flag in (("upper", upper_triangular(ONE, J, ONE), "c_zero"),
                          ("lower", lower_triangular(ONE, J, ONE), "b_zero")):
        report = non_extreme_tau_test(qmat.identity(), t, side)
        check_report_invariants(report)
        assert not report.preconditions_met
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.diagnostics[flag] == 1.0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_non_extreme_tau_is_invariant_under_diagonal_conjugation(seed):
    # D = diag(u, v) with unit u, v fixes 0 and infinity and keeps T's shape,
    # so a criterion about the group generated by S and T cannot move
    rng = random.Random(seed)
    s = random_sigma(rng)
    angle = rng.uniform(0.1, 1.4)
    lam, mu = random_elliptic_entry(rng, angle), random_elliptic_entry(rng, angle)
    eta = random_quaternion(rng)
    u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
    dmat, dinv = diagonal(u, v), diagonal(u.conj(), v.conj())
    for side, t in (("upper", upper_triangular(lam, eta, mu)),
                    ("lower", lower_triangular(lam, eta, mu))):
        if (s.c if side == "upper" else s.b).norm() < 0.1:
            continue
        before = non_extreme_tau_test(s, t, side)
        after = non_extreme_tau_test(dmat @ s @ dinv, dmat @ t @ dinv, side)
        assert after.verdict is before.verdict
        for x, y in ((after.lhs, before.lhs), (after.threshold, before.threshold)):
            assert abs(x - y) <= 1e-9 * (1.0 + abs(y))


# --- dispatch ---------------------------------------------------------------

def test_auto_select():
    assert auto_select(diagonal(Quaternion(2), Quaternion(0.5))) == "jss"
    assert auto_select(upper_triangular(ONE, J, ONE)) == "rez"
    assert auto_select(upper_triangular(I, J, I)) == "rez"
    assert auto_select(jg_regime_T(J)) == "jg"
    assert auto_select(lower_triangular(ONE, J, ONE)) == "jlt"
    with pytest.raises(ValueError):
        auto_select(real_matrix(1, 1, 1, 2))


def test_report_contract_fuzz():
    # every report coming out of the dispatcher satisfies the margin/verdict
    # contract, whatever the input shapes
    rng = random.Random(416)
    shapes = 0
    while shapes < 150:
        t_kind = rng.choice(("diagonal", "upper", "lower"))
        lam = random_unit_quaternion(rng) * rng.uniform(0.5, 2.0)
        mu = random_unit_quaternion(rng) / lam.norm()
        eta = Quaternion(*(rng.uniform(-1, 1) for _ in range(4)))
        if t_kind == "diagonal":
            t = diagonal(lam, mu)
        elif t_kind == "upper":
            t = upper_triangular(lam, eta, mu)
        else:
            t = lower_triangular(lam, eta, mu)
        s = random_sigma(rng)
        name = auto_select(t)
        report = ineq.TESTS[name](s, t)
        check_report_invariants(report)
        for extra in (extremality_criteria(s, t) if t_kind == "diagonal" else None,):
            if extra is not None:
                check_report_invariants(extra)
        shapes += 1


def test_every_selector_takes_the_pair_and_the_structural_tol():
    # cli._evaluator calls every entry as (s, t, tol=...), and no entry
    # takes another keyword
    for name, fn in ineq.TESTS.items():
        assert list(inspect.signature(fn).parameters) == ["s", "t", "tol"], name
