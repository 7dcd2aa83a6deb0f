"""Command-line front end.

Subcommands:

- ``invariants``  conjugacy invariants and determinant of one matrix
- ``classify``    normal-form classification and fixed points
- ``test``        run one inequality test on a pair (or --batch JSONL)
- ``iterate``     run the conjugation sequence, emit a CSV/JSON trace
- ``extreme``     pointwise extremality plus invariance over n steps

Input is either inline JSON or a path to a JSON file. A quaternion is
``[w, x, y, z]``, an array of four numbers (strings and booleans are
rejected); a matrix is ``{"a": [...], "b": [...], "c": [...], "d": [...]}``;
a pair is ``{"v": 1, "S": {...}, "T": {...}}``.

Exit codes: 0 inconclusive, 10 obstruction, 11 extremal, 12 not extreme,
2 usage or malformed input (including malformed or too deeply nested JSON,
a non-finite coordinate or an integer too large for a float, a T that
matches no test shape or iterate mode, ``--steps`` < 1, ``--batch`` with
``--format text``, and a failed write to stdout or ``--output``), 3
singular matrix (``invariants``,
``classify``, and any command whose evaluation must invert or act by a
singular matrix, such as ``test --select jh``), 141 stdout closed early by
its reader (e.g. piped into ``head``; 128 + SIGPIPE). A result that
overflows (a determinant too) is an error (exit 2), never
``NaN``/``Infinity`` in JSON or ``inf``/``nan`` in CSV. An elementary pair
(zero coupling entry) is a report with failed preconditions, not an error.
:func:`main` is the one place that maps failures to exit codes; ``--batch``
reads and writes one line at a time and prefixes the message with the line.

``--tol`` (default ``quat.DEFAULT_TOL``) is the one tolerance a user sets:
the structural one behind every shape, determinant and similarity gate. It
must be finite and in [0, ``MAX_TOL``]; ``inf``, ``nan``, a negative value
or one above ``MAX_TOL`` is a usage error (exit 2) on every subcommand,
checked before any input is read. Every other threshold is a fixed module
constant (see the README).
"""

from __future__ import annotations

# The package's layers are imported before the standard library's modules.
# A process that writes no bytecode compiles each layer from source; done
# first, the compiler's short-lived memory is freed before argparse and json
# load and they reuse it, where otherwise it would stack on top of them, so
# peak RSS is lower. dynamics, ineq and moebius are imported by the commands
# that run them.
from . import qmat
from .qmat import MatH2
from .quat import DEFAULT_TOL

import argparse
import contextlib
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_BROKEN_PIPE = 141      # 128 + SIGPIPE, as a shell reports it

# Largest accepted --tol: three decades above the default, below any margin
# the inequalities care about. The gates compare absolute deviations with
# tol, so a larger one would let a full or singular T pass as a triangle.
MAX_TOL = 1e-6

# the exit code of each printed verdict, and the --select choices: "auto"
# and the keys of ineq.TESTS. Literals, so that parsing the command line
# does not import ineq; tests/test_cli.py holds them to ineq.
VERDICT_EXIT = {"inconclusive": 0, "obstruction": 10, "extremal": 11,
                "not_extreme": 12}

SELECTORS = ("auto", "jss", "jss2", "jssc2", "jh", "jg", "rez", "wat", "jlt", "extreme")


def _read_file(path: str, read):
    """Yield from ``read(file)`` on the text file PATH. The one rule for input
    files: one that cannot be opened or read is a usage error."""
    try:
        with open(path) as f:
            yield from read(f)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read(path: str) -> str:
    """The whole text of PATH, decoded in one piece."""
    return "".join(_read_file(path, lambda f: (f.read(),)))


def _decode(text: str):
    """The one JSON decoder: undecodable or too deeply nested text is malformed."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


def _load_json(source: str):
    """Accept inline JSON (leading '{' or '[') or a file path."""
    return _decode(source if source.lstrip().startswith(("{", "[")) else _read(source))


def _parse_pair(obj) -> tuple[MatH2, MatH2]:
    if not isinstance(obj, dict):
        raise ValueError('pair must be an object {"v": 1, "S": ..., "T": ...}')
    version = obj.get("v", 1)
    if type(version) is not int or version != 1:      # true and 1.0 equal 1
        raise ValueError(f"unsupported input schema version {version!r}")
    if "S" not in obj or "T" not in obj:
        raise ValueError("pair must contain S and T")
    return MatH2.from_dict(obj["S"]), MatH2.from_dict(obj["T"])


# built once: json.dumps(..., allow_nan=False) builds an encoder per call
_ENCODERS = {indent: json.JSONEncoder(allow_nan=False, indent=indent)
             for indent in (None, 2)}


def _dumps(payload, indent=None) -> str:
    """Strict JSON text: a NaN or infinite value is an error, never output."""
    try:
        return _ENCODERS[indent].encode(payload)
    except ValueError as exc:
        raise ValueError(qmat.NOT_FINITE) from exc


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(payload, indent=2))
    else:
        print("\n".join(f"{key} = {_dumps(value)}" for key, value in payload.items()))


def _evaluator(name: str):
    """The report of ``--select NAME`` on a pair, as a function of (s, t,
    tol); auto picks the test by T's shape. ineq is imported here, once per
    command, not once per --batch line: each import statement runs the
    import machinery again."""
    from . import ineq

    def evaluate(s: MatH2, t: MatH2, tol: float) -> ineq.TestReport:
        selected = ineq.auto_select(t, tol) if name == "auto" else name
        return ineq.TESTS[selected](s, t, tol=tol)
    return evaluate


def _load_nonsingular(source: str) -> tuple[MatH2, float]:
    """The matrix and its determinant; a singular or overflowing one is an error."""
    m = MatH2.from_dict(_load_json(source))
    return m, math.sqrt(qmat.nonsingular_alpha(m))


def cmd_invariants(args) -> int:
    m, d = _load_nonsingular(args.matrix)
    in_sigma = qmat.in_sigma(m, args.tol)
    payload = {
        "det": d,
        "in_sigma": in_sigma,
        **qmat.invariant_set(m).to_dict(),
    }
    if args.normalize and not in_sigma:
        normalized = qmat.normalize_to_sigma(m)
        payload["normalized"] = normalized.to_dict()
        payload["normalized_invariants"] = qmat.invariant_set(normalized).to_dict()
    _emit(payload, args.format)
    if not in_sigma:
        # after the payload: one that overflows is a lone error line
        print("warning: matrix is not in the determinant-1 group",
              file=sys.stderr)
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import moebius
    m, d = _load_nonsingular(args.matrix)
    kind = moebius.classify_normal_form(m, args.tol)
    payload = {"class": kind.value, "det": d}
    if qmat.shape(m, args.tol) in ("upper", "diagonal"):
        fixed = moebius.fixed_points_normal_form(m, args.tol)
        payload["fixed_points"] = (moebius.encode_point(fixed)
                                   if fixed is moebius.ALL_POINTS
                                   else [moebius.encode_point(p) for p in fixed])
    _emit(payload, args.format)
    return EXIT_OK


def cmd_test(args) -> int:
    evaluate = _evaluator(args.select)
    if args.batch:
        return _run_batch(args, evaluate)
    s, t = _parse_pair(_load_json(args.pair))
    report = evaluate(s, t, args.tol)
    _emit(report.to_dict(), args.format)
    return VERDICT_EXIT[report.verdict.value]


def _run_batch(args, evaluate) -> int:
    """One report per line, read and written one line at a time. Text mode
    ends each physical line at a translated newline, and splitlines() splits
    it at the other separators: the lines of the whole text's splitlines()."""
    write = sys.stdout.write        # one write per report, even unbuffered
    lines = (line for physical in _read_file(args.pair, iter)
             for line in physical.splitlines())
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            s, t = _parse_pair(_decode(line))
            report = evaluate(s, t, args.tol)
            text = _dumps({"line": number, **report.to_dict()})
        except ValueError as exc:
            raise type(exc)(f"line {number}: {exc}") from exc
        write(text + "\n")
    return EXIT_OK


def cmd_iterate(args) -> int:
    from . import dynamics
    s, t = _parse_pair(_load_json(args.pair))
    mode = qmat.shape(t, args.tol) if args.mode == "auto" else args.mode
    if mode == "full":
        raise ValueError(qmat.NO_TRIANGLE)
    # finite (iterate's rule) and whole before --output is opened
    trace = dynamics.iterate(s, t, args.steps, mode, tol=args.tol)
    try:
        with (open(args.output, "w", newline="") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            if args.format == "json":
                out.write(_dumps(trace.to_dict(), indent=2) + "\n")
            else:
                out.writelines(dynamics.csv_lines(trace, args.full))  # a row at a time
            out.flush()             # a failed stdout fails before the summary
    except OSError as exc:
        if not args.output:
            raise                   # stdout: main's rule
        raise ValueError(f"cannot write {args.output}: {exc}") from exc
    classifiable = len(trace.steps) >= dynamics.MIN_CLASSIFY_STEPS
    verdict = dynamics.classify_convergence(trace) if classifiable else None
    summary = {
        "mode": mode,
        "steps": len(trace.steps) - 1,
        "truncated_reason": trace.truncated_reason,
        "convergence": verdict.to_dict() if verdict else "too short to classify",
    }
    print(_dumps(summary), file=sys.stderr)
    return EXIT_OK


def cmd_extreme(args) -> int:
    from . import dynamics, ineq
    s, t = _parse_pair(_load_json(args.pair))
    payload = {}
    if qmat.shape(t, args.tol) == "diagonal":
        payload["pointwise"] = ineq.extremality_criteria(s, t, tol=args.tol).to_dict()
    invariance = dynamics.extremal_invariance_check(s, t, args.steps, tol=args.tol)
    payload["invariance"] = invariance.to_dict()
    _emit(payload, args.format)
    return VERDICT_EXIT[invariance.verdict.value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmobius",
        description="Quaternionic Moebius arithmetic and Joergensen-type "
                    "discreteness tests")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("json", "text")):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="structural tolerance (default %(default)g, at most "
                       f"MAX_TOL = {MAX_TOL:g})")
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
    p_it.add_argument("--mode", choices=("auto",) + qmat.MODES,
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


# built once per process; parse_args keeps no state between calls
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if not 0.0 <= args.tol <= MAX_TOL:
            raise ValueError(f"--tol must be finite, non-negative and at most "
                             f"MAX_TOL = {MAX_TOL:g}, got {args.tol}")
        if getattr(args, "steps", 1) < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
        if getattr(args, "batch", False) and args.format != "json":
            raise ValueError("--batch writes JSON lines only, "
                             f"got --format {args.format}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR if isinstance(exc, qmat.SingularMatrixError) else EXIT_USAGE
    except OSError as exc:
        # stdout failed (or its reader left early); its buffer goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
