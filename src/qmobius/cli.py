"""Command-line front end.

The subcommands and their options are one table, :data:`COMMANDS`, behind
the parser and the ``-h``/``--help`` text (usage on stdout, exit 0). An
argument error is one ``error:`` line, exit 2. An option goes before or after
the positional, as ``--opt value``, ``--opt=value`` or a unique prefix
(``--sel jh``); a repeated one's last value wins; ``--`` ends the options.

Input is either inline JSON or a path to a JSON file. A quaternion is
``[w, x, y, z]``, an array of four numbers (strings and booleans are
rejected); a matrix is ``{"a": [...], "b": [...], "c": [...], "d": [...]}``;
a pair is ``{"v": 1, "S": {...}, "T": {...}}``.

Exit codes: 0 inconclusive, 10 obstruction, 11 extremal, 12 not extreme,
2 usage or malformed input (including an argument error such as an unknown
option or an invalid choice, malformed or too deeply nested JSON, a
non-finite coordinate or an integer too large for a float, a T that matches
no test shape or iterate mode, ``--steps`` < 1, ``--batch`` with ``--format
text``, and a failed write to stdout or ``--output``), 3 singular matrix
(``invariants``, ``classify``, and any command whose evaluation must invert
or act by a singular matrix, such as ``test --select jh``), 141 stdout
closed early by its reader (e.g. piped into ``head``; 128 + SIGPIPE). A
result that overflows (a determinant too) is an error (exit 2), never
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

# The package's layers come before the standard library's modules: a process
# that writes no bytecode compiles them, and json then reuses the memory the
# compiler freed, so peak RSS is lower. dynamics, ineq and moebius are
# imported by the commands that run them.
from . import qmat
from .qmat import MatH2
from .quat import DEFAULT_TOL

import contextlib
import json
import math
import os
import sys
from types import SimpleNamespace

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
    from . import dynamics
    s, t = _parse_pair(_load_json(args.pair))
    kind = qmat.shape(t, args.tol)
    pointwise = dynamics._pointwise(s, t, kind, args.tol)
    invariance = dynamics._invariance_check(s, t, args.steps, args.tol, pointwise, kind)
    payload = {"pointwise": pointwise.to_dict()} if kind == "diagonal" else {}
    payload["invariance"] = invariance.to_dict()
    _emit(payload, args.format)
    return VERDICT_EXIT[invariance.verdict.value]


# An option is (default, parse, help), parse being None for a flag, a tuple
# of choices or the type of its value.
_COMMON = {"tol": (DEFAULT_TOL, float, f"structural tolerance (default {DEFAULT_TOL:g}, "
                   f"at most MAX_TOL = {MAX_TOL:g})"), "format": ("json", ("json", "text"), "")}
COMMANDS = {    # each subcommand's handler, help, positional argument and options
    "invariants": (cmd_invariants, "conjugacy invariants and determinant", "matrix", {
        "normalize": (False, None, "also emit the determinant-normalized matrix"), **_COMMON}),
    "classify": (cmd_classify, "normal-form class and fixed points", "matrix", _COMMON),
    "test": (cmd_test, "run one inequality test on a pair (or --batch JSONL)", "pair", {
        "select": ("auto", SELECTORS, "which test to run (auto picks by T's shape; "
                   "jh reads T as the strictly hyperbolic generator)"),
        "batch": (False, None, "read pair as a JSON-lines file, one pair per line"), **_COMMON}),
    "iterate": (cmd_iterate, "run the conjugation sequence, emit a CSV/JSON trace", "pair", {
        "steps": (25, int, ""), "mode": ("auto", ("auto", *qmat.MODES), ""),
        "output": (None, str, "write the trace here instead of stdout"),
        "full": (False, None, "include all 16 entry coordinates in the CSV"),
        **_COMMON, "format": ("csv", ("csv", "json"), "")}),
    "extreme": (cmd_extreme, "extremality of a pair", "pair", {"steps": (25, int, ""), **_COMMON}),
}


def _usage(command=None) -> str:
    """The -h/--help text of qmobius, or of one of its COMMANDS."""
    head, rows = "[-h] {%s} ..." % ",".join(COMMANDS), [
        (name, spec[1]) for name, spec in COMMANDS.items()]
    if command:
        _, about, positional, options = COMMANDS[command]
        head = f"{command} [-h] [options] {positional}\n\n{about}"
        rows = [(f"--{name}" + ("" if parse is None else " {%s}" % ",".join(parse)
                                if isinstance(parse, tuple) else f" {name.upper()}"), help)
                for name, (_, parse, help) in options.items()]
    return f"usage: qmobius {head}\n\n" + "".join(f"  {row:<21} {help}".rstrip() + "\n"
                                                 for row, help in rows)


def _option(token: str, names) -> tuple:
    """(name, value) of TOKEN: -h, --NAME or a unique prefix, value None without
    =VALUE; the name is None for a positional, as argparse reads one, "" if unknown."""
    key, eq, value = token.partition("=")
    found = (["help"] if key == "-h" else [name for name in names if f"--{name}" == key]
             or [name for name in names if len(key) > 2 and f"--{name}".startswith(key)])
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {key} could match --{', --'.join(found)}")
    if found:
        return found[0], value if eq else None
    return (None if len(token) < 2 or token[0] != "-" or " " in token
            or token[1:].replace(".", "", 1).isdigit() else ""), None


def _parse(argv: list[str]):
    """The arguments of a command line under COMMANDS, or None once its
    -h/--help text is printed. Every argument error is a ValueError."""
    command, options, values, found, unknown = None, {}, {}, [], []
    args = iter(argv)
    for token in args:
        name, value = _option(token, ("help", *options))
        parse = options[name][1] if name in options else None
        if token == "--":
            found += args           # every later token is a positional
        elif name is None and command is None:
            if token not in COMMANDS:
                raise ValueError(f"argument command: invalid choice: {token!r} (choose "
                                 f"from {', '.join(map(repr, COMMANDS))})")
            command, options = token, COMMANDS[token][3]
            values = {key: spec[0] for key, spec in options.items()}
        elif not name:              # as in argparse, an unknown option fails last
            (unknown if name == "" else found).append(token)
        elif parse is None:
            if value is not None:
                raise ValueError(f"argument --{name}: ignored explicit argument {value!r}")
            if name == "help":
                return print(_usage(command), flush=True)
            values[name] = True
        else:
            # the next token, unless it is an option or there is none ("--")
            if value is None and _option(value := next(args, "--"), options)[0] is not None:
                raise ValueError(f"argument --{name}: expected one argument")
            if isinstance(parse, tuple) and value not in parse:
                raise ValueError(f"argument --{name}: invalid choice: {value!r} (choose "
                                 f"from {', '.join(map(repr, parse))})")
            try:
                values[name] = value if isinstance(parse, tuple) else parse(value)
            except ValueError:
                raise ValueError(f"argument --{name}: invalid {parse.__name__} value: "
                                 f"{value!r}") from None
    func, _, positional, _ = COMMANDS.get(command, (None, "", "command", {}))
    if func is None or not found:
        raise ValueError(f"the following arguments are required: {positional}")
    if found[1:] + unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(found[1:] + unknown)}")
    return SimpleNamespace(func=func, **{positional: found[0]}, **values)


def main(argv=None) -> int:
    try:
        if (args := _parse(sys.argv[1:] if argv is None else argv)) is None:
            return EXIT_OK
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
