"""Command-line front end.

Subcommands:

- ``invariants``  conjugacy invariants and determinant of one matrix
- ``classify``    normal-form classification and fixed points
- ``test``        run one inequality test on a pair (or --batch JSONL)
- ``iterate``     run the conjugation sequence, emit a CSV/JSON trace
- ``extreme``     pointwise extremality plus invariance over n steps

Input is either inline JSON or a path to a JSON file. A quaternion is
``[w, x, y, z]``; a matrix is ``{"a": [...], "b": [...], "c": [...],
"d": [...]}``; a pair is ``{"v": 1, "S": {...}, "T": {...}}``.

Exit codes: 0 inconclusive, 10 obstruction, 11 extremal, 12 not extreme,
2 usage or malformed input (including a non-finite coordinate, a T that
matches no test shape or iterate mode, and an unwritable ``--output``),
3 singular matrix (``invariants`` and ``classify``, and any command whose
evaluation must invert or act by a singular matrix, such as ``test
--select jh``). :func:`main` is the one place that maps failures to exit
codes; ``--batch`` prefixes the message with the input line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

from . import dynamics, ineq, moebius, qmat
from .qmat import MatH2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3

VERDICT_EXIT = {
    ineq.Verdict.INCONCLUSIVE: 0,
    ineq.Verdict.OBSTRUCTION: 10,
    ineq.Verdict.EXTREMAL: 11,
    ineq.Verdict.NOT_EXTREME: 12,
}

SELECTORS = ("auto", *ineq.TESTS)


class InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_json(source: str):
    """Accept inline JSON (leading '{' or '[') or a file path."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        text = _read(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _parse_matrix(obj) -> MatH2:
    if not isinstance(obj, dict):
        raise InputError("matrix must be an object with entries a, b, c, d")
    try:
        return MatH2.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _parse_pair(obj) -> tuple[MatH2, MatH2]:
    if not isinstance(obj, dict):
        raise InputError('pair must be an object {"v": 1, "S": ..., "T": ...}')
    version = obj.get("v", 1)
    if version != 1:
        raise InputError(f"unsupported input schema version {version!r}")
    if "S" not in obj or "T" not in obj:
        raise InputError("pair must contain S and T")
    return _parse_matrix(obj["S"]), _parse_matrix(obj["T"])


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key} = {json.dumps(value)}")


def _run_selected(name: str, s: MatH2, t: MatH2, tol: float) -> ineq.TestReport:
    if name == "auto":
        name = ineq.auto_select(t, tol)
    test = ineq.TESTS[name]
    if test is ineq.hyperbolic_commutator_test:
        # the strictly hyperbolic generator is T, the free one S
        return test(t, s, tol=tol)
    return test(s, t, tol=tol)


def _load_nonsingular(source: str) -> tuple[MatH2, float]:
    """The matrix and its determinant; a singular matrix is an error."""
    m = _parse_matrix(_load_json(source))
    d = qmat.det(m)
    if d <= qmat.NONZERO_TOL:
        raise qmat.SingularMatrixError("singular matrix")
    return m, d


def cmd_invariants(args) -> int:
    m, d = _load_nonsingular(args.matrix)
    in_sigma = qmat.in_sigma(m, args.tol)
    payload = {
        "det": d,
        "in_sigma": in_sigma,
        **qmat.invariant_set(m).to_dict(),
    }
    if not in_sigma:
        print("warning: matrix is not in the determinant-1 group",
              file=sys.stderr)
        if args.normalize:
            normalized = qmat.normalize_to_sigma(m)
            payload["normalized"] = normalized.to_dict()
            payload["normalized_invariants"] = qmat.invariant_set(normalized).to_dict()
    _emit(payload, args.format)
    return EXIT_OK


def cmd_classify(args) -> int:
    m, d = _load_nonsingular(args.matrix)
    kind = moebius.classify_normal_form(m, args.tol)
    payload = {"class": kind.value, "det": d}
    if m.c.norm() <= args.tol:
        fixed = moebius.fixed_points_normal_form(m, args.tol)
        if fixed is moebius.ALL_POINTS:
            payload["fixed_points"] = "all"
        else:
            payload["fixed_points"] = [moebius.encode_point(p) for p in fixed]
    _emit(payload, args.format)
    return EXIT_OK


def cmd_test(args) -> int:
    if args.batch:
        return _run_batch(args)
    s, t = _parse_pair(_load_json(args.pair))
    report = _run_selected(args.select, s, t, args.tol)
    _emit(report.to_dict(), args.format)
    return VERDICT_EXIT[report.verdict]


def _run_batch(args) -> int:
    for idx, line in enumerate(_read(args.pair).splitlines()):
        if not line.strip():
            continue
        try:
            s, t = _parse_pair(json.loads(line))
            report = _run_selected(args.select, s, t, args.tol)
        except qmat.SingularMatrixError as exc:
            raise qmat.SingularMatrixError(f"line {idx + 1}: {exc}") from exc
        except (InputError, ValueError) as exc:
            raise InputError(f"line {idx + 1}: {exc}") from exc
        print(json.dumps({"line": idx + 1, **report.to_dict()}))
    return EXIT_OK


def cmd_iterate(args) -> int:
    s, t = _parse_pair(_load_json(args.pair))
    if args.steps < 1:
        raise InputError("--steps must be >= 1")
    mode = args.mode
    if mode == "auto":
        mode = dynamics.AUTO_MODE[ineq.auto_select(t, args.tol)]
    trace = dynamics.iterate(s, t, args.steps, mode, tol=args.tol)
    with (_open_output(args.output) if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        if args.format == "json":
            json.dump(trace.to_dict(), out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out)
            writer.writerow(dynamics.csv_header(args.full))
            for step in trace.steps:
                writer.writerow(dynamics.csv_row(step, args.full))
    verdict = dynamics.classify_convergence(trace) if len(trace.steps) >= 5 else None
    summary = {
        "mode": mode,
        "steps": len(trace.steps) - 1,
        "truncated_reason": trace.truncated_reason,
        "convergence": verdict.to_dict() if verdict else "too short to classify",
    }
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def cmd_extreme(args) -> int:
    s, t = _parse_pair(_load_json(args.pair))
    payload = {}
    if t.b.norm() <= args.tol and t.c.norm() <= args.tol:
        payload["pointwise"] = ineq.extremality_criteria(s, t, tol=args.tol).to_dict()
    invariance = dynamics.extremal_invariance_check(s, t, args.steps, tol=args.tol)
    payload["invariance"] = invariance.to_dict()
    _emit(payload, args.format)
    return VERDICT_EXIT[invariance.verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmobius",
        description="Quaternionic Moebius arithmetic and Joergensen-type "
                    "discreteness tests")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("json", "text")):
        p.add_argument("--tol", type=float, default=1e-9,
                       help="structural tolerance (default 1e-9)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    p_inv = sub.add_parser("invariants", help="conjugacy invariants of a matrix")
    p_inv.add_argument("matrix", help="matrix JSON (inline or file path)")
    p_inv.add_argument("--normalize", action="store_true",
                       help="also emit the determinant-normalized matrix")
    common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classify", help="normal-form classification")
    p_cls.add_argument("matrix", help="matrix JSON (inline or file path)")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_test = sub.add_parser("test", help="run one inequality test on a pair")
    p_test.add_argument("pair", help="pair JSON (inline or file path); "
                        "with --batch, a JSONL file of pairs")
    p_test.add_argument("--select", choices=SELECTORS, default="auto",
                        help="which test to run (auto picks by T's shape; "
                        "jh reads T as the strictly hyperbolic generator)")
    p_test.add_argument("--batch", action="store_true",
                        help="treat input as JSON-lines, one pair per line")
    common(p_test)
    p_test.set_defaults(func=cmd_test)

    p_it = sub.add_parser("iterate", help="run the conjugation sequence")
    p_it.add_argument("pair", help="pair JSON (inline or file path)")
    p_it.add_argument("--steps", type=int, default=25)
    p_it.add_argument("--mode", choices=("auto",) + dynamics.MODES,
                      default="auto")
    p_it.add_argument("--output", help="write the trace here instead of stdout")
    p_it.add_argument("--full", action="store_true",
                      help="include all 16 entry coordinates in the CSV")
    common(p_it, fmt_choices=("csv", "json"))
    p_it.set_defaults(func=cmd_iterate)

    p_ext = sub.add_parser("extreme", help="extremality analysis of a pair")
    p_ext.add_argument("pair", help="pair JSON (inline or file path)")
    p_ext.add_argument("--steps", type=int, default=25)
    common(p_ext)
    p_ext.set_defaults(func=cmd_extreme)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR if isinstance(exc, qmat.SingularMatrixError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
