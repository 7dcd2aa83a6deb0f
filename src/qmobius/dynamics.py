"""Shimizu-Leutbecher iteration S_{n+1} = S_n T S_n^-1 and its diagnostics.

The sequence drives both the obstruction proofs (contraction of |b_n c_n|
for diagonal T) and the extremality theorems (invariance of the extremal
quantity). Iteration always uses full matrix products; the closed entry
recurrences are recomputed only to cross-check the products, which is
itself a meaningful test of the algebra.

A finite trace can never certify discreteness; the strongest positive
statement made here is "extremal quantity constant over the horizon".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .quat import Quaternion, DEFAULT_TOL
from . import qmat, ineq
from .qmat import MatH2

DIVERGENCE_CUTOFF = 1e8
ELEMENTARY_CUTOFF = 1e-10
# sustained geometric contraction: total decay from the peak required for
# the elementary verdict when the absolute cutoff has not been reached yet
ELEMENTARY_DECAY_FACTOR = 1e-4

MODES = ("diagonal", "upper", "lower")

# the iterate mode that carries the extremal quantity of each test that
# ineq.auto_select can pick
AUTO_MODE = {"jss": "diagonal", "jg": "upper", "rez": "upper", "jlt": "lower"}


@dataclass
class IterationStep:
    """Per-step statistics of the sequence.

    ``tau``/``t`` are the displacement quantities of S_n against T (upper
    formulas for diagonal and upper modes, lower formulas for lower mode);
    ``tau_c``/``t_c`` their norms times the coupling entry norm (c_n, or
    b_n in lower mode). ``extremal_lhs`` is the mode's extremal quantity:
    K (1 + |b_n c_n|) in diagonal mode, coupling * sqrt(|tau_n| |t_n|) in
    the triangular modes (b-based in lower mode, which is the quantity the
    invariance theorem propagates there).
    """

    n: int
    s: MatH2
    bc_norm: float
    det: float
    tau: Quaternion | None = None
    t: Quaternion | None = None
    tau_c: float | None = None
    t_c: float | None = None
    extremal_lhs: float | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "S": self.s.to_dict(),
            "bc_norm": self.bc_norm,
            "det": self.det,
            "tau": None if self.tau is None else self.tau.as_list(),
            "t": None if self.t is None else self.t.as_list(),
            "tau_c": self.tau_c,
            "t_c": self.t_c,
            "extremal_lhs": self.extremal_lhs,
        }


@dataclass
class IterationTrace:
    mode: str
    steps: list[IterationStep] = field(default_factory=list)
    truncated_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "truncated_reason": self.truncated_reason,
            "steps": [step.to_dict() for step in self.steps],
        }


CSV_COLUMNS = ("n", "abs_a", "abs_b", "abs_c", "abs_d", "bc_norm",
               "tau_c", "t_c", "extremal_lhs", "det")

_COORD_COLUMNS = tuple(f"{entry}_{coord}" for entry in "abcd" for coord in "wxyz")


def csv_header(full: bool = False) -> tuple[str, ...]:
    return CSV_COLUMNS + _COORD_COLUMNS if full else CSV_COLUMNS


def csv_row(step: IterationStep, full: bool = False) -> list:
    row = [
        step.n,
        step.s.a.norm(), step.s.b.norm(), step.s.c.norm(), step.s.d.norm(),
        step.bc_norm,
        "" if step.tau_c is None else step.tau_c,
        "" if step.t_c is None else step.t_c,
        "" if step.extremal_lhs is None else step.extremal_lhs,
        step.det,
    ]
    if full:
        for entry in step.s.entries():
            row.extend(entry.as_list())
    return row


def _shape_matches(t: MatH2, mode: str, tol: float) -> bool:
    if mode == "diagonal":
        return t.b.norm() <= tol and t.c.norm() <= tol
    if mode == "upper":
        return t.c.norm() <= tol
    return t.b.norm() <= tol


def _step_record(n: int, s: MatH2, t: MatH2, mode: str, k: float) -> IterationStep:
    bc_norm = s.b.norm() * s.c.norm()
    step = IterationStep(n=n, s=s, bc_norm=bc_norm, det=qmat.det(s))
    coupling = s.b if mode == "lower" else s.c
    cn = coupling.norm()
    if cn > qmat.NONZERO_TOL:
        if mode == "lower":
            tau, tt = ineq.tau0_t0_lower(s, t)
        else:
            tau, tt = ineq.tau0_t0_upper(s, t)
        step.tau, step.t = tau, tt
        step.tau_c = tau.norm() * cn
        step.t_c = tt.norm() * cn
    if mode == "diagonal":
        step.extremal_lhs = k * (1.0 + bc_norm)
    elif step.tau is not None:
        step.extremal_lhs = cn * math.sqrt(step.tau.norm() * step.t.norm())
    return step


def iterate(s: MatH2, t: MatH2, n_steps: int, mode: str,
            tol: float = DEFAULT_TOL,
            divergence_cutoff: float = DIVERGENCE_CUTOFF) -> IterationTrace:
    """Run the sequence for n_steps, recording statistics at every index.

    The trace holds n_steps + 1 records (index 0 is S itself). In the
    triangular modes the coupling entry (c_n, or b_n in lower mode)
    reaching exact zero means S_n and T share a fixed point; the trace is
    truncated there with reason "common fixed point reached". Entry norms
    beyond ``divergence_cutoff`` also truncate (reason "divergence cutoff
    exceeded") since further products only overflow.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not _shape_matches(t, mode, tol):
        raise ValueError(f"T does not match mode {mode!r}")
    k = ineq.k_value(t.a, t.d)
    trace = IterationTrace(mode=mode)
    current = s
    for n in range(n_steps + 1):
        step = _step_record(n, current, t, mode, k)
        trace.steps.append(step)
        coupling = current.b if mode == "lower" else current.c
        if mode != "diagonal" and coupling.norm() == 0.0:
            trace.truncated_reason = "common fixed point reached"
            break
        if current.max_entry_norm() > divergence_cutoff:
            trace.truncated_reason = "divergence cutoff exceeded"
            break
        if n < n_steps:
            try:
                current = current @ t @ qmat.inverse(current)
            except ValueError:
                # entry growth destroys the determinant (error scales with
                # the fourth power of the entry norms) well before any
                # overflow; stopping here is the divergent regime
                trace.truncated_reason = "numerical blow-up"
                break
    return trace


def recurrence_deviation(trace: IterationTrace, t: MatH2) -> float:
    """Max entry deviation between matrix products and the closed recurrences.

    For diagonal T the next entries satisfy

        a' = a lam d~ - b mu c~        b' = -a lam b~ + b mu a~
        c' = c lam d~ - d mu c~        d' = -c lam b~ + d mu a~

    where the tilde values belong to the current step. The iteration
    itself never uses these; agreement is a two-route consistency check.
    """
    if trace.mode != "diagonal":
        raise ValueError("recurrence check applies to diagonal mode only")
    lam, mu = t.a, t.d
    worst = 0.0
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        a, b, c, d = prev.s.entries()
        tld = qmat.tilde_set(prev.s)
        predicted = MatH2(
            a * lam * tld.d_t - b * mu * tld.c_t,
            -(a * lam * tld.b_t) + b * mu * tld.a_t,
            c * lam * tld.d_t - d * mu * tld.c_t,
            -(c * lam * tld.b_t) + d * mu * tld.a_t,
        )
        dev = max((p - q).norm()
                  for p, q in zip(predicted.entries(), nxt.s.entries()))
        worst = max(worst, dev)
    return worst


def verify_recurrence(trace: IterationTrace, t: MatH2, tol: float = 1e-7) -> bool:
    """Whether the closed recurrences agree with the trace within tol."""
    return recurrence_deviation(trace, t) <= tol


def extremal_invariance_check(s: MatH2, t: MatH2, n_steps: int,
                              tol: float = DEFAULT_TOL,
                              extremal_tol: float = ineq.EXTREMAL_TOL) -> ineq.TestReport:
    """Check that a pointwise-extremal pair keeps its extremal quantity.

    Dispatches the pointwise test from T's shape (jss / rez / jg / jlt).
    If that test does not return EXTREMAL the check is inconclusive.
    Otherwise the sequence is run and each step's extremal quantity is
    compared against the pointwise value under the linearly growing budget
    tol * (1 + n). The passing verdict is EXTREMAL in the sense of
    "constant over the horizon"; it never asserts the group is discrete.
    """
    name = ineq.auto_select(t, tol)
    # lower mode propagates the b-based quantity (see IterationStep)
    variant = {"b_variant": True} if name == "jlt" else {}
    pointwise = ineq.TESTS[name](s, t, tol=tol, extremal_tol=extremal_tol, **variant)

    diag = {
        "pointwise_lhs": pointwise.lhs,
        "pointwise_threshold": pointwise.threshold,
        "n_steps": float(n_steps),
    }
    budget = tol * (1.0 + n_steps)
    if pointwise.verdict is not ineq.Verdict.EXTREMAL:
        diag["pointwise_extremal"] = 0.0
        return ineq.TestReport("extremal_invariance", 0.0, budget, -budget,
                               ineq.Verdict.INCONCLUSIVE, False, diag)
    diag["pointwise_extremal"] = 1.0

    trace = iterate(s, t, n_steps, AUTO_MODE[name], tol=tol)
    target = pointwise.lhs
    max_dev = 0.0
    within = True
    for step in trace.steps:
        if step.extremal_lhs is None:
            within = False
            diag["missing_extremal_quantity_at"] = float(step.n)
            break
        dev = abs(step.extremal_lhs - target)
        max_dev = max(max_dev, dev)
        if dev > tol * (1.0 + step.n):
            within = False
    if trace.truncated_reason is not None:
        within = False
        diag["truncated"] = 1.0
    diag["max_deviation"] = max_dev
    diag["consistent_with_extremal_over_horizon"] = 1.0 if within else 0.0
    verdict = ineq.Verdict.EXTREMAL if within else ineq.Verdict.INCONCLUSIVE
    return ineq.TestReport("extremal_invariance", max_dev, budget,
                           max_dev - budget, verdict, True, diag)


class ConvergenceKind(enum.Enum):
    CONVERGES_TO_ELEMENTARY = "converges_to_elementary"
    STATIONARY = "stationary"
    DIVERGES = "diverges"
    UNDETERMINED = "undetermined"


@dataclass
class ConvergenceReport:
    kind: ConvergenceKind
    rate: float | None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "rate": self.rate}


def classify_convergence(trace: IterationTrace,
                         stationary_tol: float = DEFAULT_TOL,
                         elementary_cutoff: float = ELEMENTARY_CUTOFF,
                         divergence_cutoff: float = DIVERGENCE_CUTOFF,
                         decay_factor: float = ELEMENTARY_DECAY_FACTOR) -> ConvergenceReport:
    """Classify the long-run behaviour visible in a finite trace.

    DIVERGES when entries passed the cutoff. STATIONARY when the extremal
    quantity is defined throughout and varies less than
    stationary_tol * (1 + length). CONVERGES_TO_ELEMENTARY when the tail
    ratios of |b_n c_n| contract (all < 1) and either the absolute cutoff
    is reached or the total decay from the peak spans ``decay_factor``
    (sustained geometric contraction certifies the limit even before the
    absolute cutoff). Everything else is UNDETERMINED.
    """
    steps = trace.steps
    if len(steps) < 5:
        raise ValueError("need at least 5 steps to classify")

    bc = [step.bc_norm for step in steps]
    ratios = [bc[i + 1] / bc[i] for i in range(len(bc) - 1) if bc[i] > 0.0]
    tail = ratios[-10:]
    rate = sum(tail) / len(tail) if tail else None

    if (trace.truncated_reason in ("divergence cutoff exceeded", "numerical blow-up")
            or any(step.s.max_entry_norm() > divergence_cutoff for step in steps)):
        return ConvergenceReport(ConvergenceKind.DIVERGES, rate)

    lhs = [step.extremal_lhs for step in steps]
    if all(v is not None for v in lhs):
        variation = max(lhs) - min(lhs)
        if variation <= stationary_tol * (1.0 + len(steps)):
            return ConvergenceReport(ConvergenceKind.STATIONARY, rate)

    if tail and max(tail) < 1.0:
        collapsed = bc[-1] < elementary_cutoff or bc[-1] <= decay_factor * max(bc)
        if collapsed:
            return ConvergenceReport(ConvergenceKind.CONVERGES_TO_ELEMENTARY, rate)

    return ConvergenceReport(ConvergenceKind.UNDETERMINED, rate)
