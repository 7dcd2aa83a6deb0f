"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).
"""

import math
import random
import time

import pytest

from qmobius.quat import Quaternion, ZERO, ONE, J
from qmobius import qmat, ineq, dynamics
from qmobius.ineq import Verdict, k_value
from qmobius.qmat import MatH2, diagonal, upper_triangular
from conftest import (random_quaternion, random_invertible, random_sigma,
                      random_unit_quaternion, random_elliptic_entry)

SQRT2 = math.sqrt(2.0)


def test_acceptance_1_quaternion_algebra_suite():
    rng = random.Random(9001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        p = random_quaternion(rng, 2.0)
        q = random_quaternion(rng, 2.0)
        r = random_quaternion(rng, 2.0)
        scale = 1.0 + p.norm() * q.norm()
        worst = max(worst, ((p * q) * r - p * (q * r)).norm()
                    / (scale * (1.0 + r.norm())))
        worst = max(worst, abs((p * q).norm() - p.norm() * q.norm()) / scale)
        worst = max(worst, ((p * q).conj() - q.conj() * p.conj()).norm() / scale)
        if q.norm() > 1e-3:
            worst = max(worst, (q * q.inverse() - ONE).norm())
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS (max relative error {worst:.2e}, {elapsed:.2f}s)")


def test_acceptance_2_determinant_triple_equality():
    rng = random.Random(9002)
    count = 0
    worst_explicit = worst_sigma = 0.0
    while count < 1000:
        m = random_sigma(rng)
        if m.a.norm() <= 0.1:
            continue
        root_alpha = qmat.det(m)
        explicit = (m.a * m.d - m.a * m.c * m.a.inverse() * m.b).norm()
        sigma, _ = qmat.parker_short(m)
        worst_explicit = max(worst_explicit, abs(root_alpha - explicit))
        worst_sigma = max(worst_sigma, abs(root_alpha - sigma.norm()))
        count += 1
    assert worst_explicit < 1e-9
    assert worst_sigma < 1e-9
    print(f"ACCEPTANCE 2: PASS (dev explicit {worst_explicit:.2e}, "
          f"sigma {worst_sigma:.2e})")


def test_acceptance_3_kellerhals_identity_suite():
    rng = random.Random(9003)
    worst = 0.0
    for _ in range(1000):
        m = random_invertible(rng)
        a, b, c, d = m.entries()
        det = qmat.det(m)
        t = qmat.tilde_set(m)
        deviations = [
            (a * t.d_s - b * t.c_s - ONE).norm(),
            (d * t.a_s - c * t.b_s - ONE).norm(),
            (t.d_t * a - t.b_t * c - ONE).norm(),
            (t.a_t * d - t.c_t * b - ONE).norm(),
            (a * t.d_t - b * t.c_t - ONE).norm(),
            (d * t.a_t - c * t.b_t - ONE).norm(),
            (t.d_s * a - t.b_s * c - ONE).norm(),
            (t.a_s * d - t.c_s * b - ONE).norm(),
            (a * t.b_t - b * t.a_t).norm(),
            (c * t.d_t - d * t.c_t).norm(),
            (t.a_t * c - t.c_t * a).norm(),
            (t.b_t * d - t.d_t * b).norm(),
            (a * t.b_s - b * t.a_s).norm(),
            (c * t.d_s - d * t.c_s).norm(),
            (t.a_s * c - t.c_s * a).norm(),
            (t.b_s * d - t.d_s * b).norm(),
        ]
        deviations.extend(abs(v.norm() - det)
                          for v in (*qmat.l_values(m), *qmat.r_values(m)))
        worst = max(worst, max(deviations))
    assert worst < 1e-9
    print(f"ACCEPTANCE 3: PASS (max identity deviation {worst:.2e})")


def test_acceptance_4_inverse_both_routes():
    rng = random.Random(9004)
    worst_prod = worst_routes = 0.0
    for _ in range(1000):
        m = random_sigma(rng)
        inv = qmat.inverse(m)
        prod = m @ inv
        worst_prod = max(worst_prod,
                         (prod.a - ONE).norm(), prod.b.norm(),
                         prod.c.norm(), (prod.d - ONE).norm())
        inv_r = qmat.inverse_r(m)
        worst_routes = max(worst_routes,
                           max((x - y).norm() for x, y in
                               zip(inv.entries(), inv_r.entries())))
    assert worst_prod < 1e-9
    assert worst_routes < 1e-9
    print(f"ACCEPTANCE 4: PASS (M M^-1 dev {worst_prod:.2e}, "
          f"route dev {worst_routes:.2e})")


def test_acceptance_5_k_form_consistency_and_sampling():
    rng = random.Random(9005)
    worst = 0.0
    for _ in range(1000):
        lam = random_unit_quaternion(rng) * rng.uniform(0.5, 2.0)
        mu = random_unit_quaternion(rng) / lam.norm()
        k = ineq.k_value(lam, mu)
        worst = max(worst, abs(k - ineq.kellerhals_form(lam, mu)),
                    abs(k - ineq.beta_t(lam, mu)))
    assert worst < 1e-9

    lam = random_unit_quaternion(rng)
    mu = random_unit_quaternion(rng)
    closed = ineq.beta_t(lam, mu)
    # |lam - e mu e^-1|^2 at 100 000 Gaussian e = w + r, on plain floats:
    # e mu e^-1 keeps Re(mu) and rotates v = Im(mu) to
    # ((w^2 - |r|^2) v + 2 (r.v) r + 2 w r x v) / |e|^2, so with l = Im(lam)
    # the largest distance comes with the smallest l . (e v e^-1)
    lw, lx, ly, lz = lam.as_list()
    mw, vx, vy, vz = mu.as_list()
    lv = lx * vx + ly * vy + lz * vz
    cx, cy, cz = vy * lz - vz * ly, vz * lx - vx * lz, vx * ly - vy * lx  # v x l
    lowest = math.inf
    gauss = rng.gauss
    for _ in range(100_000):
        w, x, y, z = gauss(0, 1), gauss(0, 1), gauss(0, 1), gauss(0, 1)
        r2 = x * x + y * y + z * z
        n2 = w * w + r2
        if n2 < 1e-12:
            continue
        dot = ((w * w - r2) * lv
               + 2.0 * (x * lx + y * ly + z * lz) * (x * vx + y * vy + z * vz)
               + 2.0 * w * (x * cx + y * cy + z * cz)) / n2
        if dot < lowest:
            lowest = dot
    sampled = (lw - mw) ** 2 + lam.im_norm() ** 2 + mu.im_norm() ** 2 - 2.0 * lowest
    assert sampled <= closed + 1e-12
    assert closed - sampled < 1e-2
    print(f"ACCEPTANCE 5: PASS (form dev {worst:.2e}, "
          f"sampling gap {closed - sampled:.2e})")


def test_acceptance_6_commutator_delta_identity():
    rng = random.Random(9006)
    a = diagonal(Quaternion(2), Quaternion(0.5))
    delta_a = 2.0 + 0.5
    assert abs(abs(delta_a * delta_a - 4.0) - 2.25) < 1e-12
    count = 0
    worst = 0.0
    while count < 200:
        b = random_sigma(rng)
        if b.c.norm() < 0.05:
            continue
        _, _, delta_comm = qmat.foreman_invariants(qmat.commutator(a, b))
        sigma_b, _ = qmat.parker_short(b)
        predicted = -(2.0 - 0.5) ** 2 * (b.b * sigma_b.conj() * b.c).re
        worst = max(worst, abs((delta_comm - 2.0) - predicted))
        count += 1
    assert worst < 1e-8
    print(f"ACCEPTANCE 6: PASS (delta identity dev {worst:.2e})")


def test_acceptance_7_extreme_example_pointwise_and_iterated():
    started = time.perf_counter()
    s = MatH2(ONE, ZERO, ONE, ONE)
    t = upper_triangular(ONE, J, ONE)
    report = ineq.rez_test(s, t)
    assert report.verdict is Verdict.EXTREMAL
    assert abs(report.lhs - 1.0) < 1e-12
    assert abs(report.threshold - 1.0) < 1e-12
    assert abs(report.margin) < 1e-12

    trace = dynamics.iterate(s, t, 25, "upper")
    s1 = trace.steps[1].s
    expected = MatH2(Quaternion(1, 0, -1, 0), J, -J, Quaternion(1, 0, 1, 0))
    assert max((x - y).norm()
               for x, y in zip(s1.entries(), expected.entries())) < 1e-12
    for step in trace.steps:
        assert abs(step.extremal_lhs - 1.0) < 1e-8
        assert abs(step.s.c.norm() - 1.0) < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1
    print(f"ACCEPTANCE 7: PASS (25 steps, {elapsed * 1000:.1f} ms)")


def test_acceptance_8_obstruction_dynamics():
    lam = Quaternion(math.cos(math.pi / 7), math.sin(math.pi / 7))
    t = diagonal(lam, lam.conj())
    s = MatH2(ONE, Quaternion(0.1), Quaternion(0.1), Quaternion(1.01))
    report = ineq.jss_test(s, t)
    assert report.lhs == pytest.approx(0.76, abs=5e-3)
    assert report.lhs < 1.0
    assert report.verdict is Verdict.OBSTRUCTION

    trace = dynamics.iterate(s, t, 50, "diagonal")
    bc = [step.bc_norm for step in trace.steps]
    assert len(bc) == 51
    assert all(later < earlier for earlier, later in zip(bc, bc[1:]))
    for earlier, later in zip(bc, bc[1:]):
        assert later / earlier <= report.lhs + 1e-6
    verdict = dynamics.classify_convergence(trace)
    assert verdict.kind is dynamics.ConvergenceKind.CONVERGES_TO_ELEMENTARY
    print(f"ACCEPTANCE 8: PASS (lhs {report.lhs:.4f}, bc_50 {bc[-1]:.2e}, "
          f"rate {verdict.rate:.4f})")


def test_acceptance_9_recurrence_cross_check():
    rng = random.Random(9009)
    worst = 0.0
    pairs = 0
    while pairs < 50:
        lam = random_elliptic_entry(rng, rng.uniform(0.02, 0.2))
        mu = random_elliptic_entry(rng, rng.uniform(0.02, 0.2))
        t = diagonal(lam, mu)
        s = random_sigma(rng)
        if k_value(lam, mu) * (1.0 + s.b.norm() * s.c.norm()) >= 0.9:
            continue
        trace = dynamics.iterate(s, t, 20, "diagonal")
        dev = dynamics.recurrence_deviation(trace, t)
        worst = max(worst, dev)
        assert dynamics.verify_recurrence(trace, t)
        pairs += 1
    assert worst < 1e-7
    print(f"ACCEPTANCE 9: PASS (max recurrence deviation {worst:.2e})")


def test_acceptance_10_extremality_gate_theorems():
    rng = random.Random(9010)
    elliptic_checked = hyperbolic_checked = 0
    for _ in range(500):
        if rng.random() < 0.5:
            # elliptic with angle sum below pi/3: K < 1, extremal possible
            angle_a = rng.uniform(0.01, math.pi / 3 - 0.02)
            angle_b = rng.uniform(0.005, math.pi / 3 - 0.01 - angle_a)
            lam = random_elliptic_entry(rng, angle_a)
            mu = random_elliptic_entry(rng, angle_b)
            k = k_value(lam, mu)
            assert k < 1.0
            s_norm = math.sqrt((1.0 - k) / k)
            b = random_unit_quaternion(rng) * s_norm
            c = random_unit_quaternion(rng) * s_norm
            s = MatH2(ONE, b, c, ONE + c * b)
            assert abs(qmat.det(s) - 1.0) < 1e-9
            report = ineq.extremality_criteria(s, diagonal(lam, mu))
            assert report.verdict is Verdict.EXTREMAL
            assert report.diagnostics["elliptic"] == 1.0
            assert report.diagnostics["angle_sum"] < math.pi / 3
            assert report.diagnostics["order_bound"] >= 7.0
            elliptic_checked += 1
        else:
            # deep hyperbolic: K > 1 unconditionally, never extremal
            r = rng.uniform(2.0, 4.0)
            lam = random_unit_quaternion(rng) * r
            mu = random_unit_quaternion(rng) / r
            assert k_value(lam, mu) > 1.0
            report = ineq.jss_test(random_sigma(rng), diagonal(lam, mu))
            assert report.verdict is not Verdict.EXTREMAL
            hyperbolic_checked += 1
    assert elliptic_checked + hyperbolic_checked == 500
    print(f"ACCEPTANCE 10: PASS ({elliptic_checked} elliptic extremal, "
          f"{hyperbolic_checked} hyperbolic rejected)")
