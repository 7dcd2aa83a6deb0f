"""Shimizu-Leutbecher iteration S_{n+1} = S_n T S_n^-1 and its diagnostics.

The sequence drives both the obstruction proofs (contraction of |b_n c_n|
for diagonal T) and the extremality theorems (invariance of the extremal
quantity). :func:`iterate` works on the entry coordinates that a ``MatH2``
holds, from input to output, and each record keeps S_n as the ``MatH2`` of
the coordinates its step computed. Each step takes the squared norms of
S_n's entries once, and alpha of S_n once, for ``det``, the entry norms,
the conjugation S_n T S_n^-1 (``qmat._conjugate``, bitwise ``S_n @ T @
inverse(S_n)``) and the coupling and displacement quantities of
:func:`qmat._displacement` (on the J-flip in lower mode).
Every value of a record must be finite; :func:`iterate` is the one place
that checks. The closed entry recurrences are recomputed only to
cross-check the products, which is itself a meaningful test of the
algebra.

A finite trace can never certify discreteness; the strongest positive
statement made here is "extremal quantity constant over the horizon".
"""

from __future__ import annotations

import enum
import math

from .quat import DEFAULT_TOL, _Value
from . import qmat
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

    tau/t are the displacement quantities of S_n against T (upper
    formulas for diagonal and upper modes, lower formulas for lower mode);
    ``tau_c``/``t_c`` their norms times the coupling entry norm (c_n, or
    b_n in lower mode). ``extremal_lhs`` is the mode's extremal quantity:
    K (1 + |b_n c_n|) in diagonal mode, coupling * sqrt(|tau_n| |t_n|) in
    the triangular modes (b-based in lower mode, which is the quantity the
    invariance theorem propagates there). ``entry_norms`` are |a_n|, |b_n|,
    |c_n|, |d_n|, computed once per step for ``bc_norm``, the divergence
    check and the :func:`csv_lines` row; the JSON record carries S instead.

    S_n is the ``MatH2`` ``s``, which holds its entry coordinates; tau/t
    are stored as their coordinates (``tau_coords``, ``t_coords``, None
    where undefined).
    """

    __slots__ = _fields = ("n", "s", "det", "entry_norms", "tau_coords",
                           "t_coords", "tau_c", "t_c", "extremal_lhs")

    def __init__(self, n: int, s: MatH2, det: float,
                 entry_norms: tuple[float, float, float, float],
                 tau_coords: tuple[float, float, float, float] | None,
                 t_coords: tuple[float, float, float, float] | None,
                 tau_c: float | None, t_c: float | None,
                 extremal_lhs: float | None):
        self.n = n
        self.s = s
        self.det = det
        self.entry_norms = entry_norms
        self.tau_coords = tau_coords
        self.t_coords = t_coords
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
            "tau": None if self.tau_coords is None else list(self.tau_coords),
            "t": None if self.t_coords is None else list(self.t_coords),
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


def csv_lines(trace: IterationTrace, full: bool = False):
    """The trace as CSV, one line at a time: the header (``CSV_COLUMNS``,
    then with ``full`` the 16 entry coordinates ``a_w`` ... ``d_z``), then
    one row per record. A field is the ``str`` of its value (a float's is
    its repr), None is an empty field and a line ends in ``\\r\\n``: the
    line csv's excel dialect writes, as no field needs quoting."""
    yield ",".join(CSV_COLUMNS + _COORD_COLUMNS if full else CSV_COLUMNS) + "\r\n"
    for step in trace.steps:
        row = [step.n, *step.entry_norms, step.bc_norm,
               step.tau_c, step.t_c, step.extremal_lhs, step.det]
        if full:
            for entry in step.s._coords:
                row.extend(entry)
        yield ",".join(["" if value is None else str(value) for value in row]) + "\r\n"


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
    blow-up"). Each value of a record is checked for finiteness one at a
    time (a sum of finite values can overflow): the first that is not
    finite is a ``ValueError`` (:data:`NOT_FINITE`), never a trace.

    S_n stays entry coordinates from step to step, and each step reads its
    squared entry norms and alpha once (see the module docstring).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if qmat.shape(t, tol) not in (mode, "diagonal"):
        raise ValueError(f"T does not match mode {mode!r}")
    t_coords = t._coords
    k = qmat._k_value(t_coords[0], t_coords[3])
    trace = IterationTrace(mode=mode)
    current = s._coords
    for n in range(n_steps + 1):
        n2 = qmat._norms2(current)
        value = qmat._alpha(current, n2)
        det = math.sqrt(value)
        norms = tuple(map(math.sqrt, n2))
        bc = norms[1] * norms[2]
        checked = [*norms, det, bc]
        tau_c = t_c = None
        coupling, tau, tt, tau_norm, t_norm, lhs = qmat._displacement(
            current, t_coords, mode, n2)
        if tau is not None:
            tau_c = tau_norm * coupling
            t_c = t_norm * coupling
            checked += (tau_c, t_c)
        if mode == "diagonal":
            lhs = k * (1.0 + bc)
        if lhs is not None:
            checked.append(lhs)
        if not all(map(math.isfinite, checked)):
            raise ValueError(NOT_FINITE)
        trace.steps.append(IterationStep(n, qmat._from_coords(current), det, norms,
                                         tau, tt, tau_c, t_c, lhs))
        if mode != "diagonal" and coupling == 0.0:
            trace.truncated_reason = "common fixed point reached"
            break
        if max(norms) > DIVERGENCE_CUTOFF:
            trace.truncated_reason = "divergence cutoff exceeded"
            break
        if n < n_steps:
            try:
                current = qmat._conjugate(current, t_coords, n2, qmat._nonsingular(value))
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

    Dispatches the pointwise test from T's shape: extreme, rez/jg or the
    b-form of jlt. Inconclusive if that test is not EXTREMAL.
    Otherwise the sequence is run and each step's extremal quantity is
    compared against the pointwise value under the linearly growing budget
    tol * (1 + n). The passing verdict is EXTREMAL in the sense of
    "constant over the horizon"; it never asserts the group is discrete.
    A trace record with a non-finite value is :func:`iterate`'s
    ``ValueError``, never a deviation that compares false.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    kind = qmat.shape(t, tol)
    return _invariance_check(s, t, n_steps, tol, _pointwise(s, t, kind, tol), kind)


def _pointwise(s: MatH2, t: MatH2, kind: str, tol: float) -> ineq.TestReport:
    """The pointwise test of T's shape ``kind``: extreme, rez or jg, or jlt's b-form."""
    from . import ineq
    test = {"diagonal": ineq.extremality_criteria, "lower": ineq._jlt_b_form}.get(kind)
    return (test or ineq.TESTS[ineq.auto_select(t, tol)])(s, t, tol)


def _invariance_check(s: MatH2, t: MatH2, n_steps: int, tol: float,
                      pointwise: ineq.TestReport, kind: str) -> ineq.TestReport:
    """:func:`extremal_invariance_check` given the pair's pointwise report and T's shape."""
    from . import ineq
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

    trace = iterate(s, t, n_steps, kind, tol=tol)
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
    ``rate`` is the mean of the tail, the last (up to ten) ratios
    |b_{n+1} c_{n+1}| / |b_n c_n| with b_n c_n > 0, added in order: the
    same bits on every supported Python.
    """
    steps = trace.steps
    if len(steps) < MIN_CLASSIFY_STEPS:
        raise ValueError(f"need at least {MIN_CLASSIFY_STEPS} steps to classify")

    bc = [step.bc_norm for step in steps]
    ratios = [bc[i + 1] / bc[i] for i in range(len(bc) - 1) if bc[i] > 0.0]
    tail = ratios[-10:]
    total = 0.0
    for ratio in tail:
        total += ratio
    rate = total / len(tail) if tail else None

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
