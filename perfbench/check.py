"""Output checker that does not trust ``qmobius``.

Each ``check_*`` function takes one process's stdout, stderr and exit code
plus the manifest job that started it (see :mod:`gen`), and returns
``(attempted, failed, ops, errors)``: operations attempted and failed,
operations completed (report lines, or trace steps actually done) and the
first few error messages. A failure is a crash, an error line, a contract
or checker violation, or a wrong known verdict.
"""

from __future__ import annotations

import csv
import json
import math

import hamilton as H

EXTREMAL_TOL = 1e-7
VERDICT_EXIT = {"inconclusive": 0, "obstruction": 10, "extremal": 11,
                "not_extreme": 12}
# the reasons documented for a trace that stops before its horizon
TRUNCATED_REASONS = ("common fixed point reached", "divergence cutoff exceeded",
                     "numerical blow-up")
# S_{n+1} S_n = S_n T holds to rounding; the error of the computed inverse
# grows with the square of the entry norms, so the tolerance does too
RECURRENCE_RTOL = 1e-12
MAX_ERRORS = 5


def _is_num(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_report(rep, expect) -> str | None:
    """Contract and known verdict of one report; returns an error or None.

    ``expect`` is ``(test_name, verdict)``; a ``None`` verdict is unknown.
    """
    if not isinstance(rep, dict):
        return "report is not an object"
    lhs, thr, margin = rep.get("lhs"), rep.get("threshold"), rep.get("margin")
    if not (_is_num(lhs) and _is_num(thr) and _is_num(margin)):
        return f"non-numeric lhs/threshold/margin: {lhs!r} {thr!r} {margin!r}"
    if abs(margin - (lhs - thr)) > 1e-12 * (1.0 + abs(lhs) + abs(thr)):
        return f"margin {margin!r} != lhs - threshold"
    pre = rep.get("preconditions_met")
    verdict = rep.get("verdict")
    if not isinstance(pre, bool) or verdict not in VERDICT_EXIT:
        return f"bad preconditions_met/verdict: {pre!r} {verdict!r}"
    if not isinstance(rep.get("diagnostics"), dict):
        return "diagnostics is not an object"
    name = rep.get("test_name")
    if name == "extreme":
        # equality consequences refine the jss margin: never an obstruction,
        # extremal only at equality, any verdict but inconclusive needs the gates
        consistent = (verdict != "obstruction"
                      and (verdict != "extremal" or abs(margin) <= EXTREMAL_TOL)
                      and (pre or verdict == "inconclusive"))
    else:
        if not pre:
            implied = "inconclusive"
        elif margin < -EXTREMAL_TOL:
            implied = "obstruction"
        elif abs(margin) <= EXTREMAL_TOL:
            implied = "extremal"
        else:
            implied = "inconclusive"
        consistent = verdict == implied
    if not consistent:
        return f"{name}: verdict {verdict} contradicts margin {margin!r}, pre={pre}"
    want_name, want_verdict = expect
    if name != want_name:
        return f"test_name {name!r}, expected {want_name!r}"
    if want_verdict is not None and verdict != want_verdict:
        return f"{name}: verdict {verdict}, known verdict {want_verdict}"
    return None


def check_single(stdout: str, stderr: str, code: int, job: dict):
    """One pair through ``qmobius test``: the exit code encodes the verdict."""
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError:
        return 1, 1, 0, [f"exit {code}: no JSON report: {stderr.strip()[:200]}"]
    err = check_report(rep, job["expect"][0])
    if err is None and code != VERDICT_EXIT[rep["verdict"]]:
        err = f"exit code {code} does not encode verdict {rep['verdict']}"
    if err is None and code != job["exit"]:
        err = f"exit code {code}, expected {job['exit']}"
    return 1, int(err is not None), 1, [err] if err else []


def check_batch(stdout: str, stderr: str, code: int, job: dict):
    """``qmobius test --batch``: one report per input line, in order.

    The exit code is 0, or the code of a verdict that the batch reported.
    """
    expect = job["expect"]
    errors: list[str] = []
    failed = 0
    ops = 0
    reports = stdout.splitlines()
    verdicts = set()
    for idx, want in enumerate(expect):
        err = None
        if idx >= len(reports):
            err = f"line {idx + 1}: no report"
        else:
            try:
                rep = json.loads(reports[idx])
            except json.JSONDecodeError:
                rep = None
            if not isinstance(rep, dict) or rep.get("line") != idx + 1:
                err = f"line {idx + 1}: malformed or misnumbered report"
            else:
                ops += 1
                verdicts.add(rep.get("verdict"))
                err = check_report(rep, tuple(want))
                if err:
                    err = f"line {idx + 1}: {err}"
        if err:
            failed += 1
            errors.append(err)
    if len(reports) > len(expect):
        errors.append(f"{len(reports) - len(expect)} extra output lines")
        failed = max(failed, 1)
    if code != 0 and code not in {VERDICT_EXIT.get(v) for v in verdicts}:
        errors.append(f"exit code {code}: {stderr.strip()[:200]}")
        failed = len(expect)
    return len(expect), min(failed, len(expect)), ops, errors[:MAX_ERRORS]


def _matrix(obj):
    return tuple(tuple(float(x) for x in obj[key]) for key in "abcd")


def trace_matrices(stdout: str):
    """(n, S_n) of every row of an ``iterate --full`` CSV trace."""
    rows = list(csv.reader(stdout.splitlines()))
    if not rows:
        return []
    header = rows[0]
    cols = [header.index(f"{e}_{c}") for e in "abcd" for c in "wxyz"]
    n_col = header.index("n")
    out = []
    for row in rows[1:]:
        v = [float(row[i]) for i in cols]
        out.append((int(row[n_col]), (tuple(v[0:4]), tuple(v[4:8]),
                                      tuple(v[8:12]), tuple(v[12:16]))))
    return out


def _abs_columns_ok(row, header, m) -> bool:
    for key, entry in zip("abcd", m):
        if abs(float(row[header.index(f"abs_{key}")]) - H.norm(entry)) > \
                1e-12 * (1.0 + H.norm(entry)):
            return False
    return True


def check_trace(stdout: str, stderr: str, code: int, job: dict):
    """``qmobius iterate --full``: every row against the conjugation recurrence.

    S_{n+1} = S_n T S_n^-1 means S_{n+1} S_n = S_n T, which needs no inverse.
    Row 0 must be the input S, and the trace ends at the horizon or with a
    documented truncation reason from the stderr summary.
    """
    horizon = job["steps"]
    try:
        rows = list(csv.reader(stdout.splitlines()))
        header = rows[0]
        mats = trace_matrices(stdout)
        summary = json.loads(stderr.strip().splitlines()[-1])
        if not isinstance(summary, dict):
            raise ValueError("summary is not an object")
    except (IndexError, ValueError) as exc:
        return horizon, horizon, 0, [f"exit {code}: unreadable trace ({exc}): "
                                     f"{stderr.strip()[:200]}"]
    steps = len(mats) - 1
    attempted = max(steps, 1)
    errors: list[str] = []
    bad = 0
    if code != 0:
        errors.append(f"exit code {code}")
    if summary.get("steps") != steps:
        errors.append(f"summary steps {summary.get('steps')!r}, trace has {steps}")
    if steps != horizon and summary.get("truncated_reason") not in TRUNCATED_REASONS:
        errors.append(f"stopped at {steps} of {horizon} steps without a "
                      f"documented reason: {summary.get('truncated_reason')!r}")
    if not mats or mats[0][1] != _matrix(job["S"]):
        errors.append("row 0 is not the input S")
    other = len(errors)
    t = _matrix(job["T"])
    t_norm = H.max_entry_norm(t)
    for idx, (n, m) in enumerate(mats):
        err = None
        if n != idx:
            err = f"row {idx}: n = {n}"
        elif not _abs_columns_ok(rows[idx + 1], header, m):
            err = f"row {idx}: abs_* columns do not match the coordinates"
        elif idx + 1 < len(mats):
            nxt = mats[idx + 1][1]
            lhs = H.matmul(nxt, m)
            rhs = H.matmul(m, t)
            dev = max(H.norm(H.sub(p, q)) for p, q in zip(lhs, rhs))
            norm_m = H.max_entry_norm(m)
            scale = norm_m * (H.max_entry_norm(nxt) + t_norm)
            if not dev <= RECURRENCE_RTOL * (1.0 + norm_m * norm_m) * scale:
                err = f"row {idx + 1}: S_(n+1) S_n - S_n T = {dev:.3g}"
        if err:
            bad += 1
            errors.append(err)
    failed = bad + other
    return attempted, min(failed, attempted), steps, errors[:MAX_ERRORS]


CHECKERS = {"single": check_single, "batch": check_batch, "trace": check_trace}


def check(job: dict, stdout: str, stderr: str, code: int):
    return CHECKERS[job["kind"]](stdout, stderr, code, job)
