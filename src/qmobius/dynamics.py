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

from .quat import Quaternion, DEFAULT_TOL, _Value
from . import qmat, ineq
from .qmat import MatH2

DIVERGENCE_CUTOFF = 1e8
ELEMENTARY_CUTOFF = 1e-10
# sustained geometric contraction: total decay from the peak required for
# the elementary verdict when the absolute cutoff has not been reached yet
ELEMENTARY_DECAY_FACTOR = 1e-4
# closed recurrences against matrix products: a two-route rounding check
RECURRENCE_TOL = 1e-7

# the shapes of T (qmat.shape) that iterate runs in; a diagonal T fits all
MODES = ("diagonal", "upper", "lower")


class IterationStep(_Value):
    """Per-step statistics of the sequence.

    ``tau``/``t`` are the displacement quantities of S_n against T (upper
    formulas for diagonal and upper modes, lower formulas for lower mode);
    ``tau_c``/``t_c`` their norms times the coupling entry norm (c_n, or
    b_n in lower mode). ``extremal_lhs`` is the mode's extremal quantity:
    K (1 + |b_n c_n|) in diagonal mode, coupling * sqrt(|tau_n| |t_n|) in
    the triangular modes (b-based in lower mode, which is the quantity the
    invariance theorem propagates there). ``entry_norms`` are |a_n|, |b_n|,
    |c_n|, |d_n|, computed once per step for the coupling, ``bc_norm``, the
    divergence check and the CSV row; the JSON record carries S itself
    instead.
    """

    __slots__ = _fields = ("n", "s", "det", "entry_norms", "tau", "t", "tau_c",
                           "t_c", "extremal_lhs")

    def __init__(self, n: int, s: MatH2, det: float,
                 entry_norms: tuple[float, float, float, float],
                 tau: Quaternion | None = None, t: Quaternion | None = None,
                 tau_c: float | None = None, t_c: float | None = None,
                 extremal_lhs: float | None = None):
        self.n = n
        self.s = s
        self.det = det
        self.entry_norms = entry_norms
        self.tau = tau
        self.t = t
        self.tau_c = tau_c
        self.t_c = t_c
        self.extremal_lhs = extremal_lhs

    @property
    def bc_norm(self) -> float:
        return self.entry_norms[1] * self.entry_norms[2]

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


class IterationTrace(_Value):
    _fields = ("mode", "steps", "truncated_reason")

    def __init__(self, mode: str, steps: list[IterationStep] | None = None,
                 truncated_reason: str | None = None):
        self.mode = mode
        self.steps = [] if steps is None else steps
        self.truncated_reason = truncated_reason

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
        *step.entry_norms,
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


def _step_record(n: int, s: MatH2, t: MatH2, mode: str,
                 k: float) -> tuple[IterationStep, float]:
    """The record of S_n, and the norm of its coupling entry (c_n, or b_n
    in lower mode)."""
    norms = (s.a.norm(), s.b.norm(), s.c.norm(), s.d.norm())
    step = IterationStep(n=n, s=s, det=qmat.det(s), entry_norms=norms)
    side = "lower" if mode == "lower" else "upper"
    _, _, tau0_t0 = ineq.triangle_side(s, t, side)
    cn = norms[1] if side == "lower" else norms[2]
    if cn > qmat.NONZERO_TOL:
        tau, tt = tau0_t0(s, t)
        tau_norm, t_norm = tau.norm(), tt.norm()
        step.tau, step.t = tau, tt
        step.tau_c = tau_norm * cn
        step.t_c = t_norm * cn
        if mode != "diagonal":
            step.extremal_lhs = cn * math.sqrt(tau_norm * t_norm)
    if mode == "diagonal":
        step.extremal_lhs = k * (1.0 + step.bc_norm)
    return step, cn


def iterate(s: MatH2, t: MatH2, n_steps: int, mode: str,
            tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the sequence for n_steps, recording statistics at every index.

    The trace holds n_steps + 1 records (index 0 is S itself). In the
    triangular modes the coupling entry (c_n, or b_n in lower mode)
    reaching exact zero means S_n and T share a fixed point; the trace is
    truncated there with reason "common fixed point reached". Entry norms
    beyond ``DIVERGENCE_CUTOFF`` also truncate (reason "divergence cutoff
    exceeded") since further products only overflow.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if qmat.shape(t, tol) not in (mode, "diagonal"):
        raise ValueError(f"T does not match mode {mode!r}")
    k = ineq.k_value(t.a, t.d)
    trace = IterationTrace(mode=mode)
    current = s
    for n in range(n_steps + 1):
        step, coupling_norm = _step_record(n, current, t, mode, k)
        trace.steps.append(step)
        if mode != "diagonal" and coupling_norm == 0.0:
            trace.truncated_reason = "common fixed point reached"
            break
        if max(step.entry_norms) > DIVERGENCE_CUTOFF:
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


def verify_recurrence(trace: IterationTrace, t: MatH2) -> bool:
    """Whether the closed recurrences agree with the trace within RECURRENCE_TOL."""
    return recurrence_deviation(trace, t) <= RECURRENCE_TOL


def extremal_invariance_check(s: MatH2, t: MatH2, n_steps: int,
                              tol: float = DEFAULT_TOL) -> ineq.TestReport:
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
    pointwise = ineq.TESTS[name](s, t, tol=tol, **variant)

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

    trace = iterate(s, t, n_steps, qmat.shape(t, tol), tol=tol)
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


class ConvergenceReport(_Value):
    _fields = ("kind", "rate")

    def __init__(self, kind: ConvergenceKind, rate: float | None):
        self.kind = kind
        self.rate = rate

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "rate": self.rate}


def classify_convergence(trace: IterationTrace) -> ConvergenceReport:
    """Classify the long-run behaviour visible in a finite trace.

    DIVERGES when entries passed DIVERGENCE_CUTOFF. STATIONARY when the
    extremal quantity is defined throughout and varies less than
    DEFAULT_TOL * (1 + length), whatever tolerance the trace was run with.
    CONVERGES_TO_ELEMENTARY when the tail ratios of |b_n c_n| contract (all
    < 1) and either ELEMENTARY_CUTOFF is reached or the total decay from
    the peak spans ELEMENTARY_DECAY_FACTOR (sustained geometric contraction
    certifies the limit even before the absolute cutoff). Everything else
    is UNDETERMINED.
    """
    steps = trace.steps
    if len(steps) < 5:
        raise ValueError("need at least 5 steps to classify")

    bc = [step.bc_norm for step in steps]
    ratios = [bc[i + 1] / bc[i] for i in range(len(bc) - 1) if bc[i] > 0.0]
    tail = ratios[-10:]
    rate = sum(tail) / len(tail) if tail else None

    if (trace.truncated_reason in ("divergence cutoff exceeded", "numerical blow-up")
            or any(max(step.entry_norms) > DIVERGENCE_CUTOFF for step in steps)):
        return ConvergenceReport(ConvergenceKind.DIVERGES, rate)

    lhs = [step.extremal_lhs for step in steps]
    if all(v is not None for v in lhs):
        variation = max(lhs) - min(lhs)
        if variation <= DEFAULT_TOL * (1.0 + len(steps)):
            return ConvergenceReport(ConvergenceKind.STATIONARY, rate)

    if tail and max(tail) < 1.0:
        collapsed = (bc[-1] < ELEMENTARY_CUTOFF
                     or bc[-1] <= ELEMENTARY_DECAY_FACTOR * max(bc))
        if collapsed:
            return ConvergenceReport(ConvergenceKind.CONVERGES_TO_ELEMENTARY, rate)

    return ConvergenceReport(ConvergenceKind.UNDETERMINED, rate)
