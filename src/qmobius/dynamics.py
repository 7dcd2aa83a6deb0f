"""Shimizu-Leutbecher iteration S_{n+1} = S_n T S_n^-1 and its diagnostics.

The sequence drives both the obstruction proofs (contraction of |b_n c_n|
for diagonal T) and the extremality theorems (invariance of the extremal
quantity). :func:`iterate` keeps S_n and T as entry coordinates from input
to output. Each step computes alpha of S_n once, for ``det`` and for the
conjugation S_n T S_n^-1 (the coordinate core of :func:`qmat.conjugate`,
bitwise ``S_n @ T @ inverse(S_n)``), and the displacement quantities
through the coordinate core of :func:`ineq.tau0_t0_upper` (J-flipped in
lower mode). Every value of a record must be finite; :func:`iterate` is
the one place that checks. The closed entry recurrences are recomputed
only to cross-check the products, which is itself a meaningful test of
the algebra.

A finite trace can never certify discreteness; the strongest positive
statement made here is "extremal quantity constant over the horizon".
"""

from __future__ import annotations

import enum
import math

from .quat import Quaternion, DEFAULT_TOL, _Value, _new, _q
from . import qmat, ineq
from .qmat import MODES, NOT_FINITE, MatH2

DIVERGENCE_CUTOFF = 1e8
ELEMENTARY_CUTOFF = 1e-10
# sustained geometric contraction: total decay from the peak required for
# the elementary verdict when the absolute cutoff has not been reached yet
ELEMENTARY_DECAY_FACTOR = 1e-4
# closed recurrences against matrix products: a two-route rounding check
RECURRENCE_TOL = 1e-7

# the shortest trace (records, S_0 included) that classify_convergence judges
MIN_CLASSIFY_STEPS = 5


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

    S_n is stored as its 16 entry coordinates (``s_coords``: a, b, c, d,
    each w, x, y, z) and tau/t as theirs (``tau_coords``, ``t_coords``);
    ``s``, ``tau`` and ``t`` build the matrix and quaternions when read.
    """

    __slots__ = ("n", "s_coords", "det", "entry_norms", "tau_coords", "t_coords",
                 "tau_c", "t_c", "extremal_lhs")
    _fields = ("n", "s", "det", "entry_norms", "tau", "t", "tau_c", "t_c",
               "extremal_lhs")

    def __init__(self, n: int, s: MatH2, det: float,
                 entry_norms: tuple[float, float, float, float],
                 tau: Quaternion | None = None, t: Quaternion | None = None,
                 tau_c: float | None = None, t_c: float | None = None,
                 extremal_lhs: float | None = None):
        self._fill(n, tuple(x for e in s.entries() for x in e.as_list()), det,
                   entry_norms, None if tau is None else tuple(tau.as_list()),
                   None if t is None else tuple(t.as_list()), tau_c, t_c,
                   extremal_lhs)

    def _fill(self, n, s_coords, det, entry_norms, tau_coords, t_coords, tau_c,
              t_c, extremal_lhs) -> "IterationStep":
        self.n = n
        self.s_coords = s_coords
        self.det = det
        self.entry_norms = entry_norms
        self.tau_coords = tau_coords
        self.t_coords = t_coords
        self.tau_c = tau_c
        self.t_c = t_c
        self.extremal_lhs = extremal_lhs
        return self

    @property
    def s(self) -> MatH2:
        return qmat._from_coords(_entries(self.s_coords))

    @property
    def tau(self) -> Quaternion | None:
        return None if self.tau_coords is None else _q(*self.tau_coords)

    @property
    def t(self) -> Quaternion | None:
        return None if self.t_coords is None else _q(*self.t_coords)

    @property
    def bc_norm(self) -> float:
        return self.entry_norms[1] * self.entry_norms[2]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "S": {key: list(e) for key, e in zip("abcd", _entries(self.s_coords))},
            "bc_norm": self.bc_norm,
            "det": self.det,
            "tau": None if self.tau_coords is None else list(self.tau_coords),
            "t": None if self.t_coords is None else list(self.t_coords),
            "tau_c": self.tau_c,
            "t_c": self.t_c,
            "extremal_lhs": self.extremal_lhs,
        }


def _entries(s_coords):
    """The four entry coordinate tuples of a flat 16-tuple."""
    return (s_coords[0:4], s_coords[4:8], s_coords[8:12], s_coords[12:16])


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
        step.tau_c,                 # None: an empty CSV field
        step.t_c,
        step.extremal_lhs,
        step.det,
    ]
    if full:
        row.extend(step.s_coords)
    return row


def _record(n: int, m, det: float, t_upper, mode: str, k: float) -> IterationStep:
    """The record of S_n from its entry coordinates m. ``t_upper`` is the
    coordinates of T, J-flipped in lower mode, where the coupling entry and
    tau/t are read on the flip of S_n (:func:`ineq._j_flip`; on coordinates
    the reversed entry tuple).

    Each value of the record must be finite, one at a time (a sum of finite
    values can overflow): the first one that is not is a ``ValueError``.
    """
    norm2 = qmat._norm2
    a, b, c, d = m
    norms = (math.sqrt(norm2(a)), math.sqrt(norm2(b)),
             math.sqrt(norm2(c)), math.sqrt(norm2(d)))
    bc = norms[1] * norms[2]
    checked = [*norms, det, bc]
    tau = tt = tau_c = t_c = lhs = None
    cn = norms[1] if mode == "lower" else norms[2]
    if cn > qmat.NONZERO_TOL:
        tau, tt = ineq._tau0_t0(m[::-1] if mode == "lower" else m, t_upper)
        tau_norm, t_norm = math.sqrt(norm2(tau)), math.sqrt(norm2(tt))
        tau_c = tau_norm * cn
        t_c = t_norm * cn
        checked += (tau_c, t_c)
        if mode != "diagonal":
            lhs = cn * math.sqrt(tau_norm * t_norm)
    if mode == "diagonal":
        lhs = k * (1.0 + bc)
    if lhs is not None:
        checked.append(lhs)
    if not all(map(math.isfinite, checked)):
        raise ValueError(NOT_FINITE)
    return _new(IterationStep)._fill(n, (*a, *b, *c, *d), det, norms, tau, tt,
                                     tau_c, t_c, lhs)


def iterate(s: MatH2, t: MatH2, n_steps: int, mode: str,
            tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the sequence for n_steps, recording statistics at every index.

    The trace holds n_steps + 1 records (index 0 is S itself). In the
    triangular modes the coupling entry (c_n, or b_n in lower mode)
    reaching exact zero means S_n and T share a fixed point; the trace is
    truncated there with reason "common fixed point reached". Entry norms
    beyond ``DIVERGENCE_CUTOFF`` also truncate (reason "divergence cutoff
    exceeded") since further products only overflow, and so does an S_n
    that :func:`qmat.nonsingular_alpha` rejects (reason "numerical
    blow-up"). A record holding a non-finite value is a ``ValueError``
    (:data:`NOT_FINITE`), never a trace.

    S_n stays entry coordinates from step to step: alpha is computed once
    per step, for ``det`` and for the conjugation :func:`qmat.conjugate`
    computes, with the same bits.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if qmat.shape(t, tol) not in (mode, "diagonal"):
        raise ValueError(f"T does not match mode {mode!r}")
    k = ineq.k_value(t.a, t.d)
    t_coords = qmat._coords(t)
    t_upper = qmat._coords(ineq._j_flip(t)) if mode == "lower" else t_coords
    coupling = 1 if mode == "lower" else 2
    trace = IterationTrace(mode=mode)
    current = qmat._coords(s)
    for n in range(n_steps + 1):
        value = qmat._alpha(current)
        step = _record(n, current, math.sqrt(value), t_upper, mode, k)
        trace.steps.append(step)
        if mode != "diagonal" and step.entry_norms[coupling] == 0.0:
            trace.truncated_reason = "common fixed point reached"
            break
        if max(step.entry_norms) > DIVERGENCE_CUTOFF:
            trace.truncated_reason = "divergence cutoff exceeded"
            break
        if n < n_steps:
            try:
                current = qmat._conjugate(current, t_coords, qmat._nonsingular(value))
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
    A trace record with a non-finite value is :func:`iterate`'s
    ``ValueError``, never a deviation that compares false.
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

    DIVERGES when entries passed DIVERGENCE_CUTOFF. CONVERGES_TO_ELEMENTARY
    when the trace ended at a common fixed point of S_n and T, whatever its
    earlier ratios. STATIONARY when the extremal quantity is defined
    throughout and varies less than DEFAULT_TOL * (1 + length), whatever
    tolerance the trace was run with. CONVERGES_TO_ELEMENTARY also when
    the tail ratios of |b_n c_n| contract (all < 1) and either
    ELEMENTARY_CUTOFF is reached or the total decay from the peak spans
    ELEMENTARY_DECAY_FACTOR (sustained geometric contraction certifies the
    limit even before the absolute cutoff). Everything else is
    UNDETERMINED; fewer than MIN_CLASSIFY_STEPS records is an error.
    """
    steps = trace.steps
    if len(steps) < MIN_CLASSIFY_STEPS:
        raise ValueError(f"need at least {MIN_CLASSIFY_STEPS} steps to classify")

    bc = [step.bc_norm for step in steps]
    ratios = [bc[i + 1] / bc[i] for i in range(len(bc) - 1) if bc[i] > 0.0]
    tail = ratios[-10:]
    rate = sum(tail) / len(tail) if tail else None

    if (trace.truncated_reason in ("divergence cutoff exceeded", "numerical blow-up")
            or any(max(step.entry_norms) > DIVERGENCE_CUTOFF for step in steps)):
        return ConvergenceReport(ConvergenceKind.DIVERGES, rate)

    if trace.truncated_reason == "common fixed point reached":
        return ConvergenceReport(ConvergenceKind.CONVERGES_TO_ELEMENTARY, rate)

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
