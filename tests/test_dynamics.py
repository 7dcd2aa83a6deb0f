import json
import math
import random
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from qmobius.quat import DEFAULT_TOL, Quaternion, ZERO, ONE, J, K
from qmobius import ineq, dynamics, qmat
from qmobius.dynamics import (ConvergenceKind, IterationStep, IterationTrace,
                              classify_convergence, csv_lines,
                              extremal_invariance_check, iterate,
                              recurrence_deviation, verify_recurrence)
from qmobius.ineq import Verdict, k_value
from qmobius.qmat import MatH2, diagonal, identity, lower_triangular, upper_triangular
from conftest import (isclose, near_sixth_turn_pairs, random_elliptic_entry,
                      random_quaternion, random_sigma, random_unit_imaginary)
import hurwitz

SQRT2 = math.sqrt(2.0)
GOLDEN_PAIRS = Path(__file__).resolve().parent / "golden" / "pairs.jsonl"

EXTREME_S = MatH2(ONE, ZERO, ONE, ONE)
EXTREME_T = upper_triangular(ONE, J, ONE)


def obstruction_pair():
    lam = Quaternion(math.cos(math.pi / 7), math.sin(math.pi / 7))
    t = diagonal(lam, lam.conj())
    s = MatH2(ONE, Quaternion(0.1), Quaternion(0.1), Quaternion(1.01))
    return s, t


def contractive_diagonal_pair(rng):
    """Random pair with K (1 + |bc|) < 0.9 so 20 steps stay well-scaled."""
    while True:
        lam = random_elliptic_entry(rng, rng.uniform(0.02, 0.2))
        mu = random_elliptic_entry(rng, rng.uniform(0.02, 0.2))
        k = k_value(lam, mu)
        s = random_sigma(rng)
        bc = s.b.norm() * s.c.norm()
        if k * (1.0 + bc) < 0.9:
            return s, diagonal(lam, mu)


def test_central_t_gives_constant_identity_tail():
    rng = random.Random(501)
    s = random_sigma(rng)
    trace = iterate(s, identity(), 6, "diagonal")
    for step in trace.steps[1:]:
        assert (step.s.a - ONE).norm() < 1e-12
        assert step.s.b.norm() < 1e-12
    verdict = classify_convergence(trace)
    assert verdict.kind is ConvergenceKind.STATIONARY


def test_extreme_pair_first_step_hand_values():
    trace = iterate(EXTREME_S, EXTREME_T, 1, "upper")
    s1 = trace.steps[1].s
    expected = MatH2(Quaternion(1, 0, -1, 0), J, -J, Quaternion(1, 0, 1, 0))
    for got, want in zip(s1.entries(), expected.entries()):
        assert isclose(got, want, 1e-12)
    assert trace.steps[1].s.c.norm() == pytest.approx(1.0, abs=1e-12)
    assert isclose(Quaternion(*trace.steps[1].tau_coords), J, 1e-12)
    assert isclose(Quaternion(*trace.steps[1].t_coords), J, 1e-12)


def test_extreme_pair_classifies_stationary():
    trace = iterate(EXTREME_S, EXTREME_T, 25, "upper")
    assert trace.truncated_reason is None
    for step in trace.steps:
        assert step.extremal_lhs == pytest.approx(1.0, abs=1e-8)
    assert classify_convergence(trace).kind is ConvergenceKind.STATIONARY


def test_obstruction_pair_contracts_geometrically():
    s, t = obstruction_pair()
    report = ineq.jss_test(s, t)
    assert report.verdict is Verdict.OBSTRUCTION
    trace = iterate(s, t, 50, "diagonal")
    bc = [step.bc_norm for step in trace.steps]
    assert all(b2 < b1 for b1, b2 in zip(bc, bc[1:]))
    for b1, b2 in zip(bc, bc[1:]):
        assert b2 / b1 <= report.lhs + 1e-6
    verdict = classify_convergence(trace)
    assert verdict.kind is ConvergenceKind.CONVERGES_TO_ELEMENTARY
    assert verdict.rate == pytest.approx(report.diagnostics["K"], rel=0.05)


def test_contraction_is_strict_under_unit_budget():
    s, t = obstruction_pair()
    k = k_value(t.a, t.d)
    trace = iterate(s, t, 30, "diagonal")
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        if k * (1.0 + prev.bc_norm) < 1.0 and prev.bc_norm > 0.0:
            assert nxt.bc_norm < prev.bc_norm


# --- a 50-digit oracle of the sequence, on plain tuples -----------------------
#
# Quaternions are (w, x, y, z) tuples of Decimal and matrices (a, b, c, d)
# tuples of them. The inverse goes through a^-1 and the Schur complement
# d - c a^-1 b, a different route from the closed form of qmat.inverse.

def _dmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _dadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def _dneg(p):
    return tuple(-x for x in p)


def _dinv(p):
    n2 = sum(x * x for x in p)
    return (p[0] / n2, -p[1] / n2, -p[2] / n2, -p[3] / n2)


def _dmatmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (_dadd(_dmul(a, e), _dmul(b, g)), _dadd(_dmul(a, f), _dmul(b, h)),
            _dadd(_dmul(c, e), _dmul(d, g)), _dadd(_dmul(c, f), _dmul(d, h)))


def _dmatinv(m):
    a, b, c, d = m
    ai = _dinv(a)
    si = _dinv(_dadd(d, _dneg(_dmul(_dmul(c, ai), b))))
    ai_b_si = _dmul(_dmul(ai, b), si)
    return (_dadd(ai, _dmul(ai_b_si, _dmul(c, ai))), _dneg(ai_b_si),
            _dneg(_dmul(_dmul(si, c), ai)), si)


def test_diagonal_trace_follows_the_fifty_digit_sequence():
    # the golden corpus's diagonal pair: its coupling entries fall from 1 to
    # about 1e-35 in 60 steps, through and far below NONZERO_TOL
    pair = json.loads(GOLDEN_PAIRS.read_text().splitlines()[0])
    s, t = MatH2.from_dict(pair["S"]), MatH2.from_dict(pair["T"])
    assert qmat.shape(t, 0.0) == "diagonal"
    trace = iterate(s, t, 60, "diagonal")
    assert len(trace.steps) == 61
    with localcontext() as ctx:
        ctx.prec = 50
        exact_t = tuple(tuple(map(Decimal, e.as_list())) for e in t.entries())
        exact_s = tuple(tuple(map(Decimal, e.as_list())) for e in s.entries())
        for step in trace.steps:
            for got, entry in zip(step.entry_norms, exact_s):
                want = sum(x * x for x in entry).sqrt()
                assert abs(Decimal(got) - want) <= Decimal("1e-12") * want
            exact_s = _dmatmul(_dmatmul(exact_s, exact_t), _dmatinv(exact_s))
    assert trace.steps[-1].s.c.norm() < 1e-30


def test_property_diagonal_traces_keep_the_contraction_bound():
    # Jorgensen's step: |b' c'| <= K (1 + |bc|) |bc| for a unit diagonal T,
    # so a jss obstruction (K (1 + |bc|) < 1) contracts |b_n c_n| to 0. The
    # angles keep K = 2 - 2 cos(sum) in [0.01, 0.76], so 80 steps decay past
    # ELEMENTARY_DECAY_FACTOR and stay in the normal float range.
    rng = random.Random(517)
    checked = 0
    while checked < 100:
        lam = random_elliptic_entry(rng, rng.uniform(0.05, 0.45))
        mu = random_elliptic_entry(rng, rng.uniform(0.05, 0.45))
        s, t = random_sigma(rng), diagonal(lam, mu)
        if ineq.jss_test(s, t).verdict is not Verdict.OBSTRUCTION:
            continue
        checked += 1
        k = k_value(lam, mu)
        trace = iterate(s, t, 80, "diagonal")
        assert trace.truncated_reason is None
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            bound = k * (1.0 + prev.bc_norm) * prev.bc_norm
            assert nxt.bc_norm <= bound * (1.0 + 1e-12)
        assert classify_convergence(trace).kind is ConvergenceKind.CONVERGES_TO_ELEMENTARY


def test_sigma_preserved_along_trace():
    s, t = obstruction_pair()
    trace = iterate(s, t, 50, "diagonal")
    for step in trace.steps:
        assert abs(step.det - 1.0) <= 1e-6


def test_upper_mode_c_recurrence():
    trace = iterate(EXTREME_S, EXTREME_T, 20, "upper")
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        assert abs(nxt.s.c.norm() - prev.tau_c * prev.s.c.norm()) < 1e-7


def test_upper_mode_bound_chain():
    lam = Quaternion(math.cos(0.05), math.sin(0.05))
    t = upper_triangular(lam, ONE, lam)
    s_val = ineq.s_value(lam, lam)
    trace = iterate(EXTREME_S, t, 12, "upper")
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        bound = prev.tau_c * prev.t_c + SQRT2 * s_val + 1e-9
        assert nxt.tau_c <= bound
        assert nxt.t_c <= bound


def test_iterate_validation():
    s, t = obstruction_pair()
    with pytest.raises(ValueError):
        iterate(s, t, 0, "diagonal")
    with pytest.raises(ValueError):
        iterate(s, t, 5, "sideways")
    with pytest.raises(ValueError):
        iterate(s, EXTREME_T, 5, "diagonal")   # shape mismatch


def test_truncation_on_common_fixed_point():
    shared = MatH2(ONE, ONE, ZERO, ONE)    # c = 0: fixes infinity like T
    trace = iterate(shared, EXTREME_T, 10, "upper")
    assert trace.truncated_reason == "common fixed point reached"
    assert len(trace.steps) == 1


def test_divergent_pair():
    s = MatH2(ONE, Quaternion(2), Quaternion(2), Quaternion(5))
    t = diagonal(Quaternion(1.3), Quaternion(1 / 1.3))
    trace = iterate(s, t, 40, "diagonal")
    assert trace.truncated_reason in ("divergence cutoff exceeded",
                                      "numerical blow-up")
    assert len(trace.steps) >= 5
    assert classify_convergence(trace).kind is ConvergenceKind.DIVERGES


def test_classify_requires_five_steps():
    s, t = obstruction_pair()
    assert dynamics.MIN_CLASSIFY_STEPS == 5
    trace = iterate(s, t, dynamics.MIN_CLASSIFY_STEPS - 2, "diagonal")
    with pytest.raises(ValueError):
        classify_convergence(trace)
    classify_convergence(iterate(s, t, dynamics.MIN_CLASSIFY_STEPS - 1, "diagonal"))


def test_trace_ending_at_a_common_fixed_point_converges_to_elementary():
    # a unipotent lower T contracts b_n to exactly 0 at step 10; the ratio
    # |b_2 c_2| / |b_1 c_1| ~ 2.1 sits in the last ten, so the tail-ratio
    # rule alone would leave the trace undetermined
    s = MatH2(Quaternion(-0.4303103268509807, 0.3946320222833945,
                         0.9941985241637741, -0.40300372498083414),
              Quaternion(0.5317251068448701, -0.3518516026596676,
                         -0.37726242655787146, -0.011845678753996922),
              Quaternion(-0.6621614987922969, -0.09932674934799025,
                         -0.1604033657307058, 0.40748948348544917),
              Quaternion(-0.014054211332198974, -0.12409994264794841,
                         -0.3294888554829389, 0.10585590366988415))
    t = lower_triangular(ONE, Quaternion(0.468220277163252, -0.21647411850573953,
                                         0.005099235189618719, -0.4448379670320324),
                         ONE)
    trace = iterate(s, t, 1000, "lower")
    assert trace.truncated_reason == "common fixed point reached"
    assert len(trace.steps) == 11 and trace.steps[-1].entry_norms[1] == 0.0
    bc = [step.bc_norm for step in trace.steps]
    assert bc[2] / bc[1] > 1.0
    assert classify_convergence(trace).kind is ConvergenceKind.CONVERGES_TO_ELEMENTARY


def test_rate_adds_the_tail_ratios_in_order():
    # ratios 1, 1e-16, 1e-16, 1e-16: added in order each 1e-16 rounds away
    # (mean exactly 0.25); a compensated sum would keep them (0.25000000000000006)
    steps = [IterationStep(n, (1.0, 0.0, 0.0, 0.0, bc, 0.0, 0.0, 0.0,
                               1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                           1.0, (1.0, bc, 1.0, 1.0), None, None, None, None, None)
             for n, bc in enumerate((1.0, 1.0, 1e-16, 1e-32, 1e-48))]
    report = classify_convergence(IterationTrace("diagonal", steps))
    assert report.rate == 0.25


def test_classify_undetermined_short_horizon():
    s, t = obstruction_pair()
    trace = iterate(s, t, 6, "diagonal")
    assert classify_convergence(trace).kind is ConvergenceKind.UNDETERMINED


def test_recurrence_single_step_and_identity():
    s, t = obstruction_pair()
    assert verify_recurrence(iterate(s, t, 1, "diagonal"), t)
    rng = random.Random(502)
    s2 = random_sigma(rng)
    assert verify_recurrence(iterate(s2, identity(), 3, "diagonal"), identity())


def test_recurrence_on_obstruction_trace():
    s, t = obstruction_pair()
    trace = iterate(s, t, 20, "diagonal")
    dev = recurrence_deviation(trace, t)
    assert dev < 1e-7
    assert verify_recurrence(trace, t)


def test_recurrence_random_contractive_pairs():
    rng = random.Random(503)
    for _ in range(10):
        s, t = contractive_diagonal_pair(rng)
        trace = iterate(s, t, 20, "diagonal")
        assert recurrence_deviation(trace, t) < 1e-7


def test_recurrence_rejects_triangular_mode():
    trace = iterate(EXTREME_S, EXTREME_T, 3, "upper")
    with pytest.raises(ValueError):
        verify_recurrence(trace, EXTREME_T)


def test_invariance_check_extreme_pair():
    report = extremal_invariance_check(EXTREME_S, EXTREME_T, 25)
    assert report.verdict is Verdict.EXTREMAL
    assert report.preconditions_met
    assert report.diagnostics["max_deviation"] < 1e-8
    assert report.diagnostics["consistent_with_extremal_over_horizon"] == 1.0


def test_invariance_check_lower_mirror():
    s = MatH2(ONE, ONE, ZERO, ONE)
    t = lower_triangular(ONE, J, ONE)
    report = extremal_invariance_check(s, t, 25)
    assert report.verdict is Verdict.EXTREMAL
    assert report.diagnostics["max_deviation"] < 1e-8


def test_invariance_check_gate_fails_on_obstruction_pair():
    s, t = obstruction_pair()
    report = extremal_invariance_check(s, t, 10)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert not report.preconditions_met
    assert report.diagnostics["pointwise_extremal"] == 0.0


def test_invariance_check_is_inconclusive_past_a_pointwise_not_extreme():
    # jss reads equality (margin 5.2e-8) and extremality_criteria, the
    # pointwise test on a diagonal T, reads NOT_EXTREME: the sequence is not
    # run, and the report carries no flag beyond pointwise_extremal
    half = (math.pi / 3 + 3e-8) / 2
    s = MatH2(ONE, Quaternion(1e-5), Quaternion(1e-5), Quaternion(1 + 1e-10))
    t = diagonal(Quaternion(math.cos(half), math.sin(half)),
                 Quaternion(math.cos(half), -math.sin(half)))
    assert ineq.jss_test(s, t).verdict is Verdict.EXTREMAL
    assert ineq.extremality_criteria(s, t).verdict is Verdict.NOT_EXTREME
    report = extremal_invariance_check(s, t, 25)
    assert report.verdict is Verdict.INCONCLUSIVE and not report.preconditions_met
    assert "pointwise_not_extreme" not in report.diagnostics
    assert report.diagnostics["pointwise_extremal"] == 0.0
    assert "max_deviation" not in report.diagnostics


def test_invariance_check_reads_extremal_only_under_the_extreme_selector():
    # around angle sum pi/3 jss's equality and the paper's criteria part
    # ways: a pair the check reads extremal is extremal under both
    outcomes = set()
    for s, t in near_sixth_turn_pairs(random.Random(2), 40):
        extremal = extremal_invariance_check(s, t, 25).verdict is Verdict.EXTREMAL
        criteria = ineq.extremality_criteria(s, t).verdict is Verdict.EXTREMAL
        outcomes.add((ineq.jss_test(s, t).verdict is Verdict.EXTREMAL, criteria, extremal))
        assert criteria or not extremal
    # the seeds reach a jss equality that the criteria decline, and one they keep
    assert {(True, False, False), (True, True, True)} <= outcomes


@pytest.mark.parametrize("n_steps", [0, -1])
@pytest.mark.parametrize("pair", [
    (EXTREME_S, EXTREME_T),
    # jss reads this pair not extremal, so the check never reaches iterate
    (MatH2(ONE, Quaternion(0.1), Quaternion(0.1), Quaternion(1.01)),
     diagonal(Quaternion(0.9, 0.43), Quaternion(0.9, -0.43))),
], ids=["extreme", "not_extremal"])
def test_invariance_check_rejects_a_horizon_below_one(pair, n_steps):
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        extremal_invariance_check(*pair, n_steps)


def test_invariance_check_diagonal_equality_drifts_without_discreteness():
    # pointwise equality alone does not propagate: the budget is exceeded
    # and the check honestly refuses the extremal verdict
    lam = Quaternion(math.cos(0.2), math.sin(0.2))
    mu = Quaternion(math.cos(0.2), 0, math.sin(0.2))
    k = k_value(lam, mu)
    s_norm = math.sqrt((1.0 - k) / k)
    s = MatH2(ONE, Quaternion(s_norm), Quaternion(s_norm),
              ONE + Quaternion(s_norm * s_norm))
    t = diagonal(lam, mu)
    assert ineq.jss_test(s, t).verdict is Verdict.EXTREMAL
    report = extremal_invariance_check(s, t, 25)
    assert report.preconditions_met
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.diagnostics["max_deviation"] > 1e-3


def test_invariance_check_truncated_trace_is_inconclusive():
    # jss-extremal with margin 0, but T is loxodromic: the entries grow past
    # the divergence cutoff at step 85, before the horizon. Equality with a
    # non-elliptic T is not extremal under extremality_criteria, so the
    # check returns before the sequence (the truncated flag is pinned by
    # test_invariance_check_stops_where_the_extremal_quantity_is_missing)
    s = MatH2(ONE, ONE, Quaternion(0.44), Quaternion(1.44))
    t = diagonal(Quaternion(1.5), Quaternion(1.0 / 1.5))
    assert ineq.jss_test(s, t).verdict is Verdict.EXTREMAL
    assert ineq.extremality_criteria(s, t).diagnostics["non_elliptic_equality"] == 1.0
    assert iterate(s, t, 100, "diagonal").truncated_reason == "divergence cutoff exceeded"
    report = extremal_invariance_check(s, t, 100)
    assert report.verdict is Verdict.INCONCLUSIVE and not report.preconditions_met
    assert report.diagnostics["pointwise_extremal"] == 0.0
    for key in ("max_deviation", "truncated", "missing_extremal_quantity_at"):
        assert key not in report.diagnostics


def test_invariance_check_stops_where_the_extremal_quantity_is_missing():
    # jlt-extremal in both forms; the coupling b_n contracts to NONZERO_TOL
    # or below at step 57 (no extremal quantity there) and to exact zero,
    # a common fixed point, at step 62
    s = qmat.normalize_to_sigma(MatH2(ONE, ONE, ONE, K))
    t = lower_triangular(ONE, J * (1.0 / s.b.norm()), ONE)
    assert ineq.jlt_test(s, t).verdict is Verdict.EXTREMAL
    assert ineq._jlt_b_form(s, t, DEFAULT_TOL).verdict is Verdict.EXTREMAL
    trace = iterate(s, t, 100, "lower")
    assert trace.truncated_reason == "common fixed point reached"
    assert trace.steps[-1].n == 62
    report = extremal_invariance_check(s, t, 100)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.diagnostics["missing_extremal_quantity_at"] == 57.0
    assert report.diagnostics["truncated"] == 1.0


def test_iterate_records_the_selectors_lhs_bit_for_bit():
    # extremal_invariance_check compares each step's extremal quantity with
    # the pointwise selector's lhs, so at step 0 the two must be one number
    # wherever the selector's coupling gate passed, as it does on random
    # Sigma elements: jss on a diagonal T, jg and rez on upper T of their
    # shapes, jlt's b-form on a lower T of either shape
    rng = random.Random(524)
    for _ in range(300):
        s = random_sigma(rng)
        r, angle = rng.uniform(0.5, 2.0), rng.uniform(0.05, 1.5)
        t_diag = diagonal(random_elliptic_entry(rng, rng.uniform(0.05, 1.5)) * r,
                          random_elliptic_entry(rng, rng.uniform(0.05, 1.5)) * (1.0 / r))
        generic = (random_elliptic_entry(rng, angle), random_quaternion(rng),
                   random_elliptic_entry(rng, angle))
        pure = (random_unit_imaginary(rng), random_quaternion(rng),
                random_unit_imaginary(rng))
        for select, t, mode in ((ineq.jss_test, t_diag, "diagonal"),
                                (ineq.jg_test, upper_triangular(*generic), "upper"),
                                (ineq.rez_test, upper_triangular(*pure), "upper"),
                                (ineq._jlt_b_form, lower_triangular(*generic), "lower"),
                                (ineq._jlt_b_form, lower_triangular(*pure), "lower")):
            report = select(s, t, DEFAULT_TOL)
            assert "b_zero" not in report.diagnostics
            assert "c_zero" not in report.diagnostics
            lhs = iterate(s, t, 1, mode).steps[0].extremal_lhs
            assert lhs.hex() == report.lhs.hex(), (select.__name__, mode)


def test_csv_helpers():
    trace = iterate(EXTREME_S, EXTREME_T, 2, "upper")
    header, *rows = csv_lines(trace)
    assert header == "n,abs_a,abs_b,abs_c,abs_d,bc_norm,tau_c,t_c,extremal_lhs,det\r\n"
    assert len(rows) == 3 and rows[1].startswith("1,")
    assert all(row.count(",") == 9 and row.endswith("\r\n") for row in rows)
    full_header, *full_rows = csv_lines(trace, full=True)
    assert full_header == header[:-2] + "".join(
        f",{entry}_{coord}" for entry in "abcd" for coord in "wxyz") + "\r\n"
    for row, full_row in zip(rows, full_rows, strict=True):
        assert full_row.startswith(row[:-2] + ",") and full_row.count(",") == 25


def test_trace_json_round_trip_values():
    trace = iterate(EXTREME_S, EXTREME_T, 2, "upper")
    payload = trace.to_dict()
    assert payload["mode"] == "upper"
    step1 = payload["steps"][1]
    assert step1["S"]["a"] == [1.0, 0.0, -1.0, 0.0]
    assert step1["tau"] == [0.0, 0.0, 1.0, 0.0]


def test_diagonal_mode_records_tau_when_coupling_nonzero():
    s, t = obstruction_pair()
    trace = iterate(s, t, 5, "diagonal")
    for step in trace.steps:
        assert step.tau_coords is not None
        assert step.tau_c == pytest.approx(
            Quaternion(*step.tau_coords).norm() * step.s.c.norm())
        assert step.extremal_lhs == pytest.approx(
            k_value(t.a, t.d) * (1.0 + step.bc_norm))


def test_hurwitz_traces_stay_in_the_group_bit_for_bit():
    # S_{n+1} = S_n T S_n^-1 stays a Hurwitz matrix of determinant 1; while
    # every coordinate is at most 2^12, alpha's terms stay below 2^53 and each
    # row must be exact: Hurwitz entries and det == 1.0
    rng = random.Random(0)
    traces = rows = 0
    for _ in range(150):
        s = hurwitz.word(rng)
        eta = hurwitz.nonzero_hurwitz_integer(rng)
        for mode, t in (("upper", upper_triangular(ONE, eta, ONE)),
                        ("lower", lower_triangular(ONE, eta, ONE))):
            traces += 1
            for step in iterate(s, t, 40, mode).steps:
                entries = [q.as_list() for q in step.s.entries()]
                if max(abs(x) for entry in entries for x in entry) > 2.0 ** 12:
                    break
                rows += 1
                assert step.det == 1.0
                for entry in entries:
                    assert hurwitz.is_hurwitz(entry), (step.n, entry)
    assert traces == 300 and rows > 2 * traces
