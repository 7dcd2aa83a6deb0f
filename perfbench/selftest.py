"""Self-test of the benchmark: generator determinism and checker sensitivity.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that the generator writes byte-identical inputs for a seed (and
different ones for another seed), that real ``qmobius`` output passes the
checker, and that the checker rejects corrupted reports and trace rows.
Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
from pathlib import Path

import check
import gen
from run import Runner

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_run" / "selftest"


def _files(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic():
    for workload in gen.WHY:
        first = gen.generate(workload, 7, WORK / f"{workload}-a")
        gen.generate(workload, 7, WORK / f"{workload}-b")
        gen.generate(workload, 8, WORK / f"{workload}-c")
        a, b, c = (_files(WORK / f"{workload}-{x}") for x in "abc")
        assert a == b, f"{workload}: seed 7 gave different bytes"
        assert a != c, f"{workload}: seeds 7 and 8 gave the same bytes"
        assert first["why"], f"{workload}: no reason recorded"


def _first_job(workload):
    """Generate a workload, run its first job; (job, stdout, stderr, code)."""
    rundir = WORK / f"{workload}-check"
    job = gen.generate(workload, 7, rundir)["jobs"][0]
    with Runner(ROOT / "src", rundir) as runner:
        _, code, out, err = runner.run(job)
    return job, out, err, code


def _corrupt_report(line: str, **changes) -> str:
    rep = json.loads(line)
    rep.update(changes)
    return json.dumps(rep)


def test_checker_rejects_corrupted_reports():
    job, out, err, code = _first_job("screen")
    attempted, failed, ops, errors = check.check(job, out, err, code)
    assert failed == 0 and ops == attempted > 0, errors

    lines = out.splitlines()
    known = next(i for i, want in enumerate(job["expect"]) if want[1] == "obstruction")
    # the contract alone must catch corruptions of a report of unknown verdict
    unknown = next(i for i, want in enumerate(job["expect"]) if want[1] is None)
    rep = json.loads(lines[unknown])
    wrong = "obstruction" if rep["verdict"] != "obstruction" else "inconclusive"
    corruptions = {
        "verdict": (unknown, _corrupt_report(lines[unknown], verdict=wrong)),
        "margin": (unknown, _corrupt_report(lines[unknown], margin=rep["margin"] + 1e-3)),
        "NaN": (unknown, _corrupt_report(lines[unknown], lhs=float("nan"))),
        # contract-consistent, but not the known verdict
        "known verdict": (known, _corrupt_report(
            lines[known], lhs=json.loads(lines[known])["threshold"] + 0.5,
            margin=0.5, verdict="inconclusive")),
    }
    for what, (idx, bad) in corruptions.items():
        text = "\n".join(lines[:idx] + [bad] + lines[idx + 1:]) + "\n"
        _, failed, _, errors = check.check(job, text, err, code)
        assert failed == 1, f"corrupted {what} not rejected: {errors}"
    _, failed, _, _ = check.check(job, "\n".join(lines[:-1]) + "\n", err, code)
    assert failed == 1, "missing report not rejected"
    _, failed, _, _ = check.check(job, out, err, 2)
    assert failed == attempted, "usage exit code not rejected"


def _rewrite_rows(out: str, edit) -> str:
    rows = list(csv.reader(out.splitlines()))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def test_checker_rejects_corrupted_trace_rows():
    job, out, err, code = _first_job("trace")
    attempted, failed, ops, errors = check.check(job, out, err, code)
    assert failed == 0 and ops == attempted == job["steps"], errors

    def nudge_coordinate(rows):
        # change one coordinate and keep the abs_a column consistent, so
        # only the recurrence S_(n+1) S_n = S_n T can catch it
        header, row = rows[0], rows[500]
        col = header.index("a_x")
        row[col] = repr(float(row[col]) * (1.0 + 1e-6))
        coords = [float(row[header.index(f"a_{c}")]) for c in "wxyz"]
        row[header.index("abs_a")] = repr(sum(x * x for x in coords) ** 0.5)

    def drop_tail(rows):
        del rows[-10:]

    _, failed, _, errors = check.check(job, _rewrite_rows(out, nudge_coordinate), err, code)
    assert failed >= 1 and any("S_(n+1)" in e for e in errors), \
        f"corrupted trace row not rejected: {errors}"
    _, failed, _, errors = check.check(job, _rewrite_rows(out, drop_tail), err, code)
    assert failed >= 1, f"truncated trace not rejected: {errors}"


def main() -> int:
    if not (ROOT / "src" / "qmobius" / "cli.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
