"""In-process traced run: per-layer spans, exact counts and per-call timings.

The package is imported from ``src/`` and ``cli.main(argv)`` is called on
the workload's jobs. Nothing in the package changes: the wrappers here are
installed by rebinding module attributes (in every ``qmobius`` module that
holds the function), ``ineq.TESTS`` entries and ``MatH2``/``Quaternion``
class attributes, and removed again after each round.

- Spans (name, start, end, parent) wrap the functions in ``SPANNED`` plus
  every ``ineq.TESTS`` entry and ``MatH2.__matmul__`` (``qmat.matmul``).
  A layer's self time is its spans' durations minus their child spans.
- ``Quaternion`` construction, product and inverse are only counted, in a
  round of their own: a span would cost more than the operation.
- Untraced and traced rounds alternate; ``trace.overhead_frac`` is the
  median of traced over untraced wall time, minus 1.
- Per-call primitives are timed on the workload's own matrices (for
  ``trace``, on matrices read back from the traces).

The spans of the last traced round are written to ``spans.jsonl`` in the
run directory.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
import gen

LAYERS = ("quat", "qmat", "moebius", "ineq", "dynamics", "cli")
SPANNED = {
    "qmat": ("det", "inverse", "inverse_r", "tilde_set", "commutator",
             "foreman_invariants", "parker_short", "invariant_set", "in_sigma",
             "normalize_to_sigma"),
    "moebius": ("apply", "classify_normal_form", "fixed_points_normal_form"),
    "ineq": ("auto_select", "tau0_t0_upper", "tau0_t0_lower"),
    "dynamics": ("iterate", "classify_convergence", "extremal_invariance_check",
                 "recurrence_deviation"),
    "cli": ("main",),
}
CALL_COUNTS = ("qmat.inverse", "qmat.tilde_set", "qmat.matmul", "qmat.det",
               "moebius.apply")
PRIMITIVE_SAMPLES = 120
PRIMITIVE_REPEATS = 5


class Spans:
    """Span records kept in memory: (name, start ns, end ns, parent index)."""

    def __init__(self):
        self.records: list = []
        self.stack = [-1]

    def wrap(self, name, fn):
        records, stack, clock = self.records, self.stack, time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[idx] = (name, start, end, parent)
        return span


class Patches:
    """Attribute rebindings that ``restore`` undoes in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self.undo: list = []

    def set(self, target, name, value):
        self.undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def rebind(self, original, replacement):
        """Point every module attribute and TESTS entry at ``replacement``."""
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)
        tests = self.modules["ineq"].TESTS
        for key, value in list(tests.items()):
            if value is original:
                self.undo.append((tests, key, original))
                tests[key] = replacement

    def restore(self):
        for target, name, value in reversed(self.undo):
            if isinstance(target, dict):
                target[name] = value
            else:
                setattr(target, name, value)
        self.undo.clear()


@contextlib.contextmanager
def spans_installed(modules, spans: Spans):
    patches = Patches(modules)
    try:
        targets = {}
        for layer, names in SPANNED.items():
            for name in names:
                fn = getattr(modules[layer], name, None)
                if callable(fn):
                    targets[fn] = f"{layer}.{name}"
        for fn in modules["ineq"].TESTS.values():
            targets.setdefault(fn, f"ineq.{getattr(fn, '__name__', 'test')}")
        for fn, name in targets.items():
            patches.rebind(fn, spans.wrap(name, fn))
        mat = modules["qmat"].MatH2
        patches.set(mat, "__matmul__", spans.wrap("qmat.matmul", mat.__matmul__))
        yield
    finally:
        patches.restore()


@contextlib.contextmanager
def quat_counts_installed(modules, counts: dict):
    quat_cls = modules["quat"].Quaternion
    patches = Patches(modules)

    def counter(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
    try:
        for key, attr in (("new", "__init__"), ("mul", "__mul__"),
                          ("inverse", "inverse")):
            patches.set(quat_cls, attr, counter(key, getattr(quat_cls, attr)))
        yield
    finally:
        patches.restore()


def _run_round(cli, jobs, rundir: Path, tally):
    """Every job through ``cli.main`` once: (wall s, ops, [(job, stdout)])."""
    wall = 0.0
    ops = 0
    outputs = []
    for job in jobs:
        command, name, *rest = job["argv"]
        argv = [command, str(rundir / name), *rest]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a stop
                traceback.print_exc()
                code = 1
            wall += time.perf_counter() - start
        ops += tally.add(job, out.getvalue(), err.getvalue(), code)
        outputs.append((job, out.getvalue()))
    return wall, ops, outputs


def _per_layer(records, ops: int) -> dict:
    child_ns = [0] * len(records)
    for name, start, end, parent in records:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS[1:], 0)
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    for idx, (name, start, end, parent) in enumerate(records):
        layer = name.split(".")[0]
        self_ns[layer] += end - start - child_ns[idx]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + end - start
        calls[layer] = calls.get(layer, 0) + 1
    metrics = {}
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_us_per_op"] = (self_ns[layer] / 1e3 / ops, "us/op")
    metrics["ineq.calls_per_op"] = (calls.get("ineq", 0) / ops, "count/op")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls_per_op"] = (calls.get(name, 0) / ops, "count/op")
    n_inv = calls.get("qmat.inverse", 0)
    metrics["qmat.inverse.us_per_call"] = (
        total_ns.get("qmat.inverse", 0) / 1e3 / n_inv if n_inv else 0.0, "us")
    return metrics


def _best_per_call(fn, items) -> float:
    """Seconds per item of ``fn(items)``, best of PRIMITIVE_REPEATS."""
    best = float("inf")
    for _ in range(PRIMITIVE_REPEATS):
        start = time.perf_counter()
        fn(items)
        best = min(best, time.perf_counter() - start)
    return best / len(items)


def _sample(items, n):
    step = max(1, len(items) // n)
    return items[::step][:n]


def _workload_pairs(modules, manifest, rundir, outputs):
    """(S, T) matrices the workload feeds the program, as ``MatH2``."""
    mat = modules["qmat"].MatH2
    pairs = []
    for job, stdout in outputs:
        if job["kind"] == "trace":
            t = mat.from_dict(job["T"])
            rows = _sample(check.trace_matrices(stdout), PRIMITIVE_SAMPLES // 4)
            pairs += [(mat.from_dict(dict(zip("abcd", m))), t) for _, m in rows]
    if not pairs:
        lines = []
        for name in dict.fromkeys(job["argv"][1] for job in manifest["jobs"]):
            lines += (rundir / name).read_text().splitlines()
        for line in _sample(lines, PRIMITIVE_SAMPLES):
            obj = json.loads(line)
            pairs.append((mat.from_dict(obj["S"]), mat.from_dict(obj["T"])))
    return _sample(pairs, PRIMITIVE_SAMPLES)


def _primitives(modules, manifest, rundir, outputs) -> dict:
    qmat, ineq = modules["qmat"], modules["ineq"]
    quat_cls = modules["quat"].Quaternion
    pairs = _workload_pairs(modules, manifest, rundir, outputs)
    coords = [e.as_list() for s, _ in pairs for e in s.entries()]
    quats = [(s.a, s.d) for s, _ in pairs]
    inverse, det, tilde_set = qmat.inverse, qmat.det, qmat.tilde_set

    def loop_new(items):
        for w, x, y, z in items:
            quat_cls(w, x, y, z)

    def loop_mul(items):
        for p, q in items:
            p * q

    metrics = {
        "quat.new_ns": (_best_per_call(loop_new, coords) * 1e9, "ns"),
        "quat.mul_ns": (_best_per_call(loop_mul, quats) * 1e9, "ns"),
    }
    per_pair = {
        "qmat.matmul_us": lambda items: [s @ t for s, t in items],
        "qmat.det_us": lambda items: [det(s) for s, _ in items],
        "qmat.inverse_us": lambda items: [inverse(s) for s, _ in items],
        "qmat.tilde_set_us": lambda items: [tilde_set(s) for s, _ in items],
        "dynamics.step_us": lambda items: [s @ t @ inverse(s) for s, t in items],
    }
    for name, fn in per_pair.items():
        metrics[name] = (_best_per_call(fn, pairs) * 1e6, "us")

    mat = qmat.MatH2

    def as_mat(m):
        return mat.from_dict({key: list(e) for key, e in zip("abcd", m)})
    probes = gen.probe_pairs(manifest["seed"])
    for key, test in ineq.TESTS.items():
        if key not in probes:
            continue
        # the CLI passes jh its hyperbolic generator T first
        args = [(as_mat(t), as_mat(s)) if key == "jh" else (as_mat(s), as_mat(t))
                for s, t in probes[key]]
        metrics[f"ineq.{key}_us"] = (
            _best_per_call(lambda items: [test(a, b) for a, b in items], args) * 1e6,
            "us")
    return metrics


def traced_run(manifest: dict, rundir: Path, src: Path, tally, seconds: float) -> dict:
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"qmobius.{name}") for name in LAYERS}
    where = Path(modules["cli"].__file__).resolve().parent
    if where != (src / "qmobius").resolve():
        raise RuntimeError(f"qmobius imported from {where}, not from {src}")
    cli, jobs = modules["cli"], manifest["jobs"]

    ratios = []
    busy = 0.0
    while not ratios or busy < seconds:
        plain_wall, _, _ = _run_round(cli, jobs, rundir, tally)
        spans = Spans()
        with spans_installed(modules, spans):
            traced_wall, ops, outputs = _run_round(cli, jobs, rundir, tally)
        busy += plain_wall + traced_wall
        ratios.append(traced_wall / plain_wall)

    metrics = _per_layer(spans.records, ops)
    with (rundir / "spans.jsonl").open("w") as fh:
        for rec in spans.records:
            fh.write(json.dumps(rec) + "\n")

    counts = {"new": 0, "mul": 0, "inverse": 0}
    with quat_counts_installed(modules, counts):
        _, count_ops, _ = _run_round(cli, jobs, rundir, tally)
    for key in ("new", "mul", "inverse"):
        metrics[f"quat.{key}_per_op"] = (counts[key] / count_ops, "count/op")

    metrics.update(_primitives(modules, manifest, rundir, outputs))
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    print(f"# {len(ratios)} traced rounds, {len(spans.records)} spans")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
