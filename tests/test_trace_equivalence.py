"""``dynamics.iterate`` against the matrix loop it replaced, bit for bit.

``reference_iterate`` is the loop that ran before S_n stayed entry
coordinates: every step builds S_n as a ``MatH2``, takes ``qmat.det``, the
entry norms through ``Quaternion.norm``, tau/t through
``ineq.tau0_t0_upper`` (of the J-flipped pair in lower mode) and the next
S_n as ``current @ t @ qmat.inverse(current)``, whose inverse computes alpha
a second time. It never rejects a value; the CLI used to rescan its records
for non-finite ones. Its records go through the one ``IterationStep``
constructor, from the coordinates of what it computed.
The coordinate loop must give the same records and truncation reason, and
raise at a record with a non-finite value exactly where that rescan failed.
"""

import math
import random
import struct

import pytest

from qmobius import dynamics, ineq, qmat
from qmobius.dynamics import IterationStep, IterationTrace
from qmobius.qmat import MatH2
from qmobius.quat import ONE, ZERO, Quaternion
from conftest import (j_flip, random_elliptic_entry, random_quaternion,
                      random_sigma, random_unit_quaternion)


def _reference_step_record(n, s, t_upper, mode, k):
    norms = (s.a.norm(), s.b.norm(), s.c.norm(), s.d.norm())
    tau = tt = tau_c = t_c = lhs = None
    cn = norms[1] if mode == "lower" else norms[2]
    if cn > qmat.NONZERO_TOL:
        tau, tt = ineq.tau0_t0_upper(j_flip(s) if mode == "lower" else s, t_upper)
        tau_norm, t_norm = tau.norm(), tt.norm()
        tau_c = tau_norm * cn
        t_c = t_norm * cn
        if mode != "diagonal":
            lhs = cn * math.sqrt(tau_norm * t_norm)
    if mode == "diagonal":
        lhs = k * (1.0 + norms[1] * norms[2])
    step = IterationStep(n, s, qmat.det(s), norms,
                         None if tau is None else _coords([tau]),
                         None if tt is None else _coords([tt]), tau_c, t_c, lhs)
    return step, cn


def _coords(quaternions):
    """The coordinates of these quaternions, in order, as one flat tuple."""
    return tuple(x for q in quaternions for x in q.as_list())


def reference_iterate(s, t, n_steps, mode):
    k = ineq.k_value(t.a, t.d)
    t_upper = j_flip(t) if mode == "lower" else t
    trace = IterationTrace(mode=mode)
    current = s
    for n in range(n_steps + 1):
        step, coupling_norm = _reference_step_record(n, current, t_upper, mode, k)
        trace.steps.append(step)
        if mode != "diagonal" and coupling_norm == 0.0:
            trace.truncated_reason = "common fixed point reached"
            break
        if max(step.entry_norms) > dynamics.DIVERGENCE_CUTOFF:
            trace.truncated_reason = "divergence cutoff exceeded"
            break
        if n < n_steps:
            try:
                current = current @ t @ qmat.inverse(current)
            except ValueError:
                trace.truncated_reason = "numerical blow-up"
                break
    return trace


def _has_non_finite(step):
    values = (*step.entry_norms, step.det, step.bc_norm, step.tau_c, step.t_c,
              step.extremal_lhs)
    return any(v is not None and not math.isfinite(v) for v in values)


def _bits(value):
    """Every float of a record field as its IEEE bit pattern."""
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, MatH2):
        value = value._coords
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value                    # n, and None for a missing quantity


def _record_bits(step):
    return {name: _bits(getattr(step, name)) for name in IterationStep._fields}


def _triangle(mode, lam, eta, mu):
    if mode == "upper":
        return MatH2(lam, eta, ZERO, mu)
    if mode == "lower":
        return MatH2(lam, ZERO, eta, mu)
    return MatH2(lam, ZERO, ZERO, mu)


def _cases():
    """(S, T, mode, steps): seeded pairs in every mode, each of the three
    truncation reasons, and the records that overflow."""
    rng = random.Random(16)
    cases = []
    for mode in dynamics.MODES:
        for i in range(16):
            kind = i % 4
            s = random_sigma(rng)
            eta = ZERO if mode == "diagonal" else random_quaternion(rng, 2.0)
            coupling = 0.05     # of c (b in lower mode): triangular drifts last
            if kind == 0:       # small rotations: long contracting drifts
                lam = random_elliptic_entry(rng, rng.uniform(0.1, 0.5))
                mu = random_elliptic_entry(rng, rng.uniform(0.1, 0.5))
            elif kind == 1:     # loxodromic: entries grow to the cutoff
                r = rng.uniform(1.5, 3.0)
                lam = random_unit_quaternion(rng) * r
                mu = random_unit_quaternion(rng) * (1.0 / r)
            elif kind == 2:     # unipotent: the coupling contracts to zero
                lam = mu = ONE
                coupling = rng.uniform(0.4, 0.8) / max(eta.norm(), 0.1)
            else:               # any rotations: drift until alpha loses its bits
                lam, mu = random_unit_quaternion(rng), random_unit_quaternion(rng)
                coupling = None
            if mode != "diagonal" and coupling is not None:
                entries = list(s.entries())
                k = 1 if mode == "lower" else 2
                entries[k] = entries[k] * (coupling / entries[k].norm())
                s = MatH2(*entries)
            cases.append((s, _triangle(mode, lam, eta, mu), mode, 80))
        # a singular S: the first conjugation fails
        cases.append((MatH2(ONE, ONE, ONE, ONE),
                      _triangle(mode, Quaternion(2.0), ONE, Quaternion(0.5)), mode, 5))
        # S of T's shape: a zero coupling entry, so S and T share a fixed
        # point at once in the triangular modes
        cases.append((_triangle(mode, ONE, ONE, ONE),
                      _triangle(mode, Quaternion(2.0), ONE, Quaternion(0.5)), mode, 5))
    unit = MatH2(ONE, Quaternion(0.5), Quaternion(0.3), Quaternion(1.15))
    huge = Quaternion(1e200)
    cases += [
        # K = inf at step 0
        (unit, _triangle("diagonal", Quaternion(1e160), ZERO, Quaternion(1e-160)), "diagonal", 5),
        # alpha = inf + inf - inf = NaN at step 0
        (MatH2(huge, huge, huge, huge),
         _triangle("diagonal", Quaternion(2.0), ZERO, Quaternion(0.5)), "diagonal", 5),
        # finite at step 0, det = inf at step 1
        (unit, _triangle("diagonal", Quaternion(1e80), ZERO, Quaternion(1e-80)), "diagonal", 5),
    ]
    return cases


def test_iterate_matches_the_matrix_loop_bit_for_bit():
    reasons = set()
    raised = []
    for s, t, mode, steps in _cases():
        expected = reference_iterate(s, t, steps, mode)
        bad = [step.n for step in expected.steps if _has_non_finite(step)]
        if bad:
            with pytest.raises(ValueError) as info:
                dynamics.iterate(s, t, steps, mode)
            assert str(info.value) == dynamics.NOT_FINITE
            raised.append(bad[0])
            continue
        got = dynamics.iterate(s, t, steps, mode)
        assert got.truncated_reason == expected.truncated_reason
        assert ([_record_bits(step) for step in got.steps]
                == [_record_bits(step) for step in expected.steps])
        reasons.add(expected.truncated_reason)
    assert reasons == {None, "common fixed point reached",
                       "divergence cutoff exceeded", "numerical blow-up"}
    # the three overflowing inputs: two at step 0, one after a finite record
    assert sorted(raised) == [0, 0, 1]
