import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qmobius import cli, dynamics, ineq, qmat
from qmobius.qmat import MatH2
from qmobius.quat import DEFAULT_TOL, Quaternion


def quat_list(w=0.0, x=0.0, y=0.0, z=0.0):
    return [w, x, y, z]


def matrix_obj(a, b, c, d):
    return {"a": a, "b": b, "c": c, "d": d}


EXTREME_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(), quat_list(1), quat_list(1)),
    "T": matrix_obj(quat_list(1), quat_list(0, 0, 1), quat_list(), quat_list(1)),
}

_c7, _s7 = math.cos(math.pi / 7), math.sin(math.pi / 7)
OBSTRUCTION_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(0.1), quat_list(0.1), quat_list(1.01)),
    "T": matrix_obj(quat_list(_c7, _s7), quat_list(), quat_list(),
                    quat_list(_c7, -_s7)),
}

FULL_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(), quat_list(1), quat_list(1)),
    "T": matrix_obj(quat_list(1), quat_list(1), quat_list(1), quat_list(2)),
}

SINGULAR_S_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(1), quat_list(1), quat_list(1)),
    "T": matrix_obj(quat_list(2), quat_list(), quat_list(), quat_list(0.5)),
}


# finite coordinates whose products overflow inside the evaluators
OVERFLOW_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1e200), quat_list(1e200), quat_list(1e200),
                    quat_list(1)),
    "T": matrix_obj(quat_list(2), quat_list(), quat_list(), quat_list(0.5)),
}

# det S = 2001 - 50 * 40 = 1 exactly; jss2's L^k = 2^2002 overflows
JSS2_POWER_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(50), quat_list(40), quat_list(2001)),
    "T": matrix_obj(quat_list(0.8, 0.6), quat_list(), quat_list(),
                    quat_list(0.8, -0.6)),
}

# iterate records that overflow: K = inf at step 0 (T = diag(1e160, 1e-160)),
# alpha = inf + inf - inf = NaN at step 0, and det = inf at step 1 after a
# finite step 0 (T = diag(1e80, 1e-80))
_UNIT_S = matrix_obj(quat_list(1), quat_list(0.5), quat_list(0.3), quat_list(1.15))
ITERATE_OVERFLOWS = {
    "k_inf": {"v": 1, "S": _UNIT_S,
              "T": matrix_obj(quat_list(1e160), quat_list(), quat_list(),
                              quat_list(1e-160))},
    "alpha_nan": {"v": 1, "S": matrix_obj(*[quat_list(1e200)] * 4),
                  "T": OVERFLOW_PAIR["T"]},
    "step_1": {"v": 1, "S": _UNIT_S,
               "T": matrix_obj(quat_list(1e80), quat_list(), quat_list(),
                               quat_list(1e-80))},
}

# elliptic T with angle sum 1e-154: cot^2 of half of it overflows at --tol 0
TINY_ANGLE_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(), quat_list(1), quat_list(1)),
    "T": matrix_obj(quat_list(1, 5e-155), quat_list(), quat_list(),
                    quat_list(1, -5e-155)),
}

# |T.c| = 1e-10 is zero to the shape gate but a genuine pole: T sends S's
# displacement point a c^-1 = -1e10 to infinity
WAT_POLE_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(-1000), quat_list(), quat_list(1e-7), quat_list(-1e-3)),
    "T": matrix_obj(quat_list(1), quat_list(1), quat_list(1e-10), quat_list(1)),
}

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text(capsys):
    matrix = json.dumps(matrix_obj(quat_list(2), quat_list(), quat_list(),
                                   quat_list(0.5)))
    code, out, err = run(capsys, "invariants", matrix, "--format", "text")
    assert code == 0
    assert "delta = 2.5" in out
    assert "sigma = [1.0, 0.0, 0.0, 0.0]" in out
    assert err == ""


def test_emitted_json_round_trips_bit_identically(capsys):
    # awkward coordinates survive print-and-reparse exactly
    entries = matrix_obj(quat_list(1.0000000000000002), quat_list(),
                         quat_list(0.1, -2.0 ** -45),
                         quat_list(1 / 3, 0, 3e-120))
    pair = {"v": 1, "S": entries,
            "T": matrix_obj(quat_list(1), quat_list(0, 0, 1), quat_list(),
                            quat_list(1))}
    code, out, _ = run(capsys, "iterate", json.dumps(pair), "--steps", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert MatH2.from_dict(payload["steps"][0]["S"]) == MatH2.from_dict(entries)


def test_invariants_singular_exit_code(capsys):
    matrix = json.dumps(matrix_obj(quat_list(1), quat_list(1), quat_list(1),
                                   quat_list(1)))
    code, _, err = run(capsys, "invariants", matrix)
    assert code == 3
    assert "singular" in err


def test_invariants_normalize(capsys):
    matrix = json.dumps(matrix_obj(quat_list(2), quat_list(), quat_list(),
                                   quat_list(2)))
    code, out, err = run(capsys, "invariants", matrix, "--normalize")
    assert code == 0
    assert "not in the determinant-1 group" in err
    payload = json.loads(out)
    assert payload["normalized"]["a"] == [1.0, 0.0, 0.0, 0.0]


def test_malformed_json_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "{not json")
    assert code == 2
    assert "malformed JSON" in err


def test_classify_identity_fixes_all_points(capsys):
    matrix = json.dumps(matrix_obj(quat_list(1), quat_list(), quat_list(),
                                   quat_list(1)))
    code, out, _ = run(capsys, "classify", matrix)
    assert code == 0
    assert json.loads(out)["fixed_points"] == "all"


def test_classify_parabolic(capsys):
    matrix = json.dumps(matrix_obj(quat_list(0, 1), quat_list(1),
                                   quat_list(), quat_list(0, 1)))
    code, out, _ = run(capsys, "classify", matrix, "--format", "text")
    assert code == 0
    assert '"parabolic"' in out
    assert '["inf"]' in out


def test_extreme_pair_rez_exit_code(capsys):
    code, out, _ = run(capsys, "test", json.dumps(EXTREME_PAIR),
                       "--select", "rez")
    assert code == 11
    payload = json.loads(out)
    assert payload["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert payload["threshold"] == pytest.approx(1.0, abs=1e-12)
    assert payload["verdict"] == "extremal"


def test_obstruction_pair_auto_routes_to_jss(capsys):
    code, out, _ = run(capsys, "test", json.dumps(OBSTRUCTION_PAIR))
    assert code == 10
    payload = json.loads(out)
    assert payload["test_name"] == "jss"
    assert payload["lhs"] == pytest.approx(0.76055, abs=1e-4)


def test_auto_rejects_full_matrix(capsys):
    code, _, err = run(capsys, "test", json.dumps(FULL_PAIR))
    assert code == 2
    assert "no test shape" in err


def test_jh_selector_reads_t_as_hyperbolic_generator(capsys):
    pair = {
        "v": 1,
        "S": matrix_obj(quat_list(1), quat_list(0.5), quat_list(0.5),
                        quat_list(1.25)),
        "T": matrix_obj(quat_list(2), quat_list(), quat_list(), quat_list(0.5)),
    }
    code, out, _ = run(capsys, "test", json.dumps(pair), "--select", "jh")
    payload = json.loads(out)
    assert payload["test_name"] == "jh"
    assert payload["diagnostics"]["term_A"] == pytest.approx(2.25, abs=1e-12)


def test_schema_version_gate(capsys):
    bad = dict(EXTREME_PAIR, v=2)
    code, _, err = run(capsys, "test", json.dumps(bad))
    assert code == 2
    assert "schema version" in err


def test_iterate_csv_and_summary(capsys):
    code, out, err = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                         "--steps", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(dynamics.csv_header())
    assert len(rows) == 7        # header + steps 0..5
    assert float(rows[1][8]) == pytest.approx(1.0, abs=1e-12)
    summary = json.loads(err)
    assert summary["mode"] == "upper"
    assert summary["convergence"]["kind"] == "stationary"


def test_iterate_full_adds_coordinate_columns(capsys):
    code, out, _ = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                       "--steps", "2", "--full")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows[0]) == 26
    # step 1: a = 1 - j
    header = rows[0]
    assert rows[2][header.index("a_y")] == "-1.0"


_csv_float = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e308, -1e308, 1e-7)),
    st.floats(allow_nan=False, allow_infinity=False))
_csv_fields = st.sampled_from((9, 25)).flatmap(lambda n: st.lists(
    st.one_of(st.none(), st.integers(), _csv_float), min_size=n, max_size=n))


def _csv_writer_line(fields) -> str:
    out = io.StringIO(newline="")
    csv.writer(out).writerow(fields)
    return out.getvalue()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), _csv_fields)
@example(0, [None, -0.0, 5e-324, 1e16, 1e308, 0.1, -2, None, 1.5])
@example(1000, [1e16, None, -0.0, 5e-324, 1e308, -1e-300, *[0.1] * 19])
def test_csv_line_is_the_csv_writer_line(n, fields):
    # rows of 10 and 26 fields (--full), as dynamics.csv_row builds them
    line = cli._csv_line([n, *fields])
    assert line == _csv_writer_line([n, *fields])
    assert line.endswith("\r\n") and line.count("\n") == 1
    for full in (False, True):
        header = dynamics.csv_header(full)
        assert cli._csv_line(header) == _csv_writer_line(header)


def test_iterate_json_format(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    code, out, err = run(capsys, "iterate", json.dumps(OBSTRUCTION_PAIR),
                         "--steps", "50", "--format", "json",
                         "--output", str(out_file))
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text())
    assert payload["mode"] == "diagonal"
    assert len(payload["steps"]) == 51
    summary = json.loads(err)
    assert summary["convergence"]["kind"] == "converges_to_elementary"


def test_iterate_zero_steps_usage_error(capsys):
    code, _, err = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                       "--steps", "0")
    assert code == 2
    assert "steps" in err


def test_extreme_subcommand(capsys):
    code, out, _ = run(capsys, "extreme", json.dumps(EXTREME_PAIR),
                       "--steps", "25")
    assert code == 11
    payload = json.loads(out)
    assert payload["invariance"]["verdict"] == "extremal"
    assert payload["invariance"]["diagnostics"]["max_deviation"] < 1e-8


def test_batch_mode(capsys, tmp_path):
    batch = tmp_path / "pairs.jsonl"
    batch.write_text(json.dumps(EXTREME_PAIR) + "\n"
                     + json.dumps(OBSTRUCTION_PAIR) + "\n")
    code, out, _ = run(capsys, "test", str(batch), "--batch")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [entry["verdict"] for entry in lines] == ["extremal", "obstruction"]
    assert lines[0]["line"] == 1


def test_pair_file_input_wat(capsys, tmp_path):
    unipotent = {
        "v": 1,
        "S": matrix_obj(quat_list(1), quat_list(), quat_list(1), quat_list(1)),
        "T": matrix_obj(quat_list(1), quat_list(1), quat_list(), quat_list(1)),
    }
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(unipotent))
    code, out, _ = run(capsys, "test", str(pair_file), "--select", "wat")
    assert code == 11
    assert json.loads(out)["verdict"] == "extremal"


def test_wat_gate_fails_on_nonunit_eta(capsys):
    code, out, _ = run(capsys, "test", json.dumps(EXTREME_PAIR),
                       "--select", "wat")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    assert payload["preconditions_met"] is False


# a coupling entry (S.c, or S.b for the J-flipped lower pair) of norm 1e-13
# passes --tol 0 but is below NONZERO_TOL, where tau0/t0 are undefined
TINY_COUPLING_PAIRS = {
    "c_zero": {"v": 1,
               "S": matrix_obj(quat_list(1), quat_list(), quat_list(1e-13),
                               quat_list(1)),
               "T": matrix_obj(quat_list(1), quat_list(0, 0, 1), quat_list(),
                               quat_list(1))},
    "b_zero": {"v": 1,
               "S": matrix_obj(quat_list(1), quat_list(1e-13), quat_list(),
                               quat_list(1)),
               "T": matrix_obj(quat_list(1), quat_list(), quat_list(0, 0, 1),
                               quat_list(1))},
}


def _tiny_c_pair(t):
    return {"v": 1, "S": TINY_COUPLING_PAIRS["c_zero"]["S"], "T": t}


# id: (command, pair, further arguments, zero-coupling flag); the T of each
# --select case meets every other gate of its test
TINY_COUPLING_CASES = {
    **{f"{command}-{flag}": (command, pair, (), flag)
       for command in ("test", "extreme") for flag, pair in TINY_COUPLING_PAIRS.items()},
    "wat-c_zero": ("test", _tiny_c_pair(matrix_obj(quat_list(1), quat_list(1),
                                                   quat_list(), quat_list(1))),
                   ("--select", "wat"), "c_zero"),
    "jh": ("test", _tiny_c_pair(matrix_obj(quat_list(2), quat_list(), quat_list(),
                                           quat_list(0.5))),
           ("--select", "jh"), None),
}


@pytest.mark.parametrize("case", sorted(TINY_COUPLING_CASES))
def test_coupling_below_nonzero_tol_is_a_failed_gate(capsys, case):
    command, pair, extra, flag = TINY_COUPLING_CASES[case]
    code, out, err = run(capsys, command, json.dumps(pair), *extra, "--tol", "0")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    if command == "extreme":
        assert payload["invariance"]["verdict"] == "inconclusive"
        assert payload["invariance"]["diagnostics"]["pointwise_lhs"] == 0.0
        return
    assert payload["preconditions_met"] is False
    if flag is not None:
        assert payload["lhs"] == 0.0
        assert payload["diagnostics"][flag] == 1.0


# T = [[1, 1], [0, 1]] fixes only infinity; S's displacement points a c^-1 =
# 1e13 and -c^-1 d = -1e3 lie far out but are each moved by exactly 1
FAR_POINTS_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1e5), quat_list(), quat_list(1e-8), quat_list(1e-5)),
    "T": matrix_obj(quat_list(1), quat_list(1), quat_list(), quat_list(1)),
}


def test_wat_far_displacement_points_agree_with_rez(capsys):
    payloads = {}
    for name in ("wat", "rez"):
        code, out, err = run(capsys, "test", json.dumps(FAR_POINTS_PAIR),
                             "--select", name)
        assert (code, err) == (10, "")
        payloads[name] = json.loads(out)
    assert payloads["wat"]["lhs"] == pytest.approx(1e-8, rel=1e-12)
    assert payloads["wat"]["verdict"] == payloads["rez"]["verdict"] == "obstruction"


def test_wat_singular_t_exit_code(capsys):
    pair = {"v": 1, "S": EXTREME_PAIR["S"],
            "T": matrix_obj(quat_list(1), quat_list(1), quat_list(), quat_list())}
    code, out, err = run(capsys, "test", json.dumps(pair), "--select", "wat")
    assert (code, out) == (3, "")
    assert_one_error_line(err, "singular matrix")


# the shapes of T each evaluator's preconditions accept; the rest: diagonal
TRIANGLE_TESTS = {"jg": ("upper", "diagonal"), "rez": ("upper", "diagonal"),
                  "wat": ("upper", "diagonal"), "jlt": ("lower", "diagonal")}


@pytest.mark.parametrize("tol", [DEFAULT_TOL, cli.MAX_TOL])
def test_shape_sites_agree_at_the_tol_boundary(capsys, tol):
    # each off-diagonal entry of T has norm exactly tol (zero to every gate),
    # one ulp above it, or 1; k-directed entries keep det T = 1. S and the
    # diagonal of T meet every other gate of the tests they are run with.
    above = math.nextafter(tol, math.inf)

    def entry(x):
        return Quaternion(1.0) if x == 1.0 else Quaternion(0, 0, 0, x)

    assert entry(tol).norm() == tol and entry(above).norm() == above
    offs = ([(x, y) for x in (tol, above) for y in (tol, above)]
            + [(1.0, x) for x in (tol, above)] + [(x, 1.0) for x in (tol, above)])
    groups = (
        (2.0, 0.5, MatH2(*map(Quaternion, (1, 1, 1, 2))),
         [name for name in ineq.TESTS if name not in TRIANGLE_TESTS]),
        (1.0, 1.0, MatH2(*map(Quaternion, (2, 1, 1, 1))), list(TRIANGLE_TESTS)),
    )
    seen = set()
    for lam, mu, s, names in groups:
        for b, c in offs:
            t = MatH2(Quaternion(lam), entry(b), entry(c), Quaternion(mu))
            kind = qmat.shape(t, tol)
            seen.add(kind)
            if kind == "full":
                with pytest.raises(ValueError, match="no test shape"):
                    ineq.auto_select(t, tol)
            else:
                assert ineq.auto_select(t, tol) in {
                    "diagonal": ("jss",), "upper": ("jg", "rez"),
                    "lower": ("jlt",)}[kind]
            for name in names:
                if name == "wat" and b != 1.0:
                    continue          # wat also needs eta = 1
                report = ineq.TESTS[name](s, t, tol=tol)
                accepted = TRIANGLE_TESTS.get(name, ("diagonal",))
                assert report.preconditions_met == (kind in accepted), (name, b, c)
            pair = json.dumps({"v": 1, "S": s.to_dict(), "T": t.to_dict()})
            common = ("--tol", repr(tol))
            for mode in ("auto", *dynamics.MODES):
                code, _, err = run(capsys, "iterate", pair, "--mode", mode,
                                   "--steps", "1", *common)
                fits = kind != "full" if mode == "auto" else kind in (mode, "diagonal")
                assert code == (0 if fits else 2), (mode, b, c, err)
                if mode == "auto" and fits:
                    assert json.loads(err)["mode"] == kind
            code, out, _ = run(capsys, "extreme", pair, "--steps", "1", *common)
            assert (code == 2) == (kind == "full")
            assert ("pointwise" in json.loads(out or "{}")) == (kind == "diagonal")
            code, out, _ = run(capsys, "classify", json.dumps(t.to_dict()), *common)
            assert code == 0
            fixed = "fixed_points" in json.loads(out)
            assert fixed == (kind in ("upper", "diagonal"))
    assert seen == {"diagonal", "upper", "lower", "full"}


def test_missing_pair_entries(capsys):
    code, _, err = run(capsys, "test", json.dumps({"v": 1, "S": {}}))
    assert code == 2
    assert "S and T" in err


def assert_one_error_line(err, *fragments):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


def write_batch(tmp_path, *lines):
    batch = tmp_path / "pairs.jsonl"
    batch.write_text("".join(line + "\n" for line in lines))
    return str(batch)


@pytest.mark.parametrize("pair, extra, message", [
    (FULL_PAIR, (), "no test shape"),
    (EXTREME_PAIR, ("--mode", "diagonal"), "does not match mode"),
], ids=["full_t", "mode_mismatch"])
def test_iterate_shape_errors_are_usage_errors(capsys, pair, extra, message):
    code, out, err = run(capsys, "iterate", json.dumps(pair), *extra)
    assert code == 2
    assert out == ""
    assert_one_error_line(err, message)


def test_iterate_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, _, err = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                       "--output", str(target))
    assert code == 2
    assert_one_error_line(err, "cannot write")


def test_jh_singular_matrix_exit_code(capsys):
    code, out, err = run(capsys, "test", json.dumps(SINGULAR_S_PAIR),
                         "--select", "jh")
    assert code == 3
    assert out == ""
    assert_one_error_line(err, "singular matrix")


def test_batch_jh_singular_matrix_exit_code(capsys, tmp_path):
    batch = write_batch(tmp_path, json.dumps(SINGULAR_S_PAIR))
    code, out, err = run(capsys, "test", batch, "--batch", "--select", "jh")
    assert code == 3
    assert out == ""
    assert err == "error: line 1: singular matrix\n"


def test_batch_malformed_json_line(capsys, tmp_path):
    # the reports before the failing line are out; the lines after it are
    # never screened
    batch = write_batch(tmp_path, json.dumps(EXTREME_PAIR),
                        json.dumps(OBSTRUCTION_PAIR), "{not json",
                        json.dumps(EXTREME_PAIR))
    code, out, err = run(capsys, "test", batch, "--batch")
    assert code == 2
    assert [json.loads(line)["line"] for line in out.splitlines()] == [1, 2]
    assert_one_error_line(err, "line 3:", "malformed JSON")


# every separator str.splitlines() knows; text mode translates the first three
_SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("pair", "", "  ", "padded")),
                          st.sampled_from(_SEPARATORS)), max_size=8),
       st.booleans())
@example([("pair", "\r\n"), ("pair", "\r"), ("", "\r\n"), ("pair", "\x0c"),
          ("pair", "\u2028"), ("", "\n"), ("  ", "\x85")], True)
# the \r\n after the padded line falls in two of the reader's 8 KiB chunks
@example([("padded", "\r\n"), ("pair", "\r\n"), ("", "\r\n")], False)
def test_batch_line_numbers_are_those_of_splitlines(tmp_path_factory, pieces,
                                                     final_newline):
    pair = json.dumps(EXTREME_PAIR)
    kinds = {"pair": pair, "padded": pair + " " * (8191 - len(pair))}
    text = "".join(kinds.get(kind, kind) + sep for kind, sep in pieces)
    text += "" if final_newline else pair          # a last line with no newline
    batch = tmp_path_factory.mktemp("batch") / "pairs.jsonl"
    batch.write_bytes(text.encode())
    expected = [number for number, line
                in enumerate(batch.read_text().splitlines(), 1)
                if line.strip()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["test", str(batch), "--batch"]) == cli.EXIT_OK
    assert [json.loads(line)["line"] for line in out.getvalue().splitlines()] == expected
    assert err.getvalue() == ""


def test_batch_undecodable_byte_is_one_error_line(capsys, tmp_path):
    # the lines before the undecodable chunk are reported; the position in
    # the message is the byte's offset in that chunk of the batch, but in
    # the whole file for a single pair, which is read in one piece
    pair = json.dumps(EXTREME_PAIR).encode()
    good = 20_000 // len(pair)
    batch = tmp_path / "pairs.jsonl"
    batch.write_bytes(b"".join(pair + b"\n" for _ in range(good)) + b"\xff\n" + pair)
    code, out, err = run(capsys, "test", str(batch), "--batch")
    assert code == 2
    assert_one_error_line(err, "can't decode byte 0xff")
    numbers = [json.loads(line)["line"] for line in out.splitlines()]
    assert numbers == list(range(1, len(numbers) + 1)) and 0 < len(numbers) < good
    batch.write_bytes(b"\xff" + pair)
    code, out, err = run(capsys, "test", str(batch), "--batch")
    assert (code, out) == (2, "")
    assert_one_error_line(err, "can't decode byte 0xff in position 0")
    single = tmp_path / "pair.json"
    single.write_bytes(pair + b" " * 20_000 + b"\xff")
    code, out, err = run(capsys, "test", str(single))
    assert (code, out) == (2, "")
    assert_one_error_line(err, f"can't decode byte 0xff in position {len(pair) + 20_000}")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_batch_reports_a_line_before_the_next_is_written():
    # a batch read whole would wait for the end of its input before the
    # first report, and this exchange would never finish
    env = _process_env(unbuffered=True)
    with subprocess.Popen([sys.executable, "-m", "qmobius.cli", "test",
                           "/dev/stdin", "--batch"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, env=env) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            reports = []
            for pair in (EXTREME_PAIR, OBSTRUCTION_PAIR):
                proc.stdin.write(json.dumps(pair).encode() + b"\n")
                proc.stdin.flush()
                reports.append(json.loads(proc.stdout.readline()))
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            watchdog.cancel()
            proc.kill()
    assert [(r["line"], r["verdict"]) for r in reports] == [
        (1, "extremal"), (2, "obstruction")]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("form", ["single", "batch"])
def test_non_finite_coordinate_is_usage_error(capsys, tmp_path, token, form):
    text = json.dumps(EXTREME_PAIR).replace("[1, ", f"[{token}, ", 1)
    assert token in text
    if form == "single":
        code, out, err = run(capsys, "test", text)
        assert_one_error_line(err, "finite")
    else:
        code, out, err = run(capsys, "test", write_batch(tmp_path, text), "--batch")
        assert_one_error_line(err, "line 1:", "finite")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("form", ["single", "batch"])
def test_schema_version_is_the_integer_one(capsys, tmp_path, version, form):
    # in Python both compare equal to 1, but neither is schema version 1
    text = json.dumps(dict(EXTREME_PAIR, v=version))
    if form == "single":
        code, out, err = run(capsys, "test", text)
        assert_one_error_line(err, "unsupported input schema version")
    else:
        code, out, err = run(capsys, "test", write_batch(tmp_path, text), "--batch")
        assert_one_error_line(err, "line 1:", "unsupported input schema version")
    assert code == 2
    assert out == ""


def test_readme_pair_iterate_keeps_extremal_quantity_exactly(capsys):
    # the sequence has integer entries; the closed-form inverse keeps them
    # exact, so det and the extremal quantity stay 1 over 1000 steps
    code, out, err = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                         "--steps", "1000", "--mode", "upper", "--format", "json")
    assert code == 0
    trace = json.loads(out)
    assert trace["truncated_reason"] is None
    assert len(trace["steps"]) == 1001
    assert {step["extremal_lhs"] for step in trace["steps"]} == {1.0}
    assert {step["det"] for step in trace["steps"]} == {1.0}
    summary = json.loads(err)
    assert summary["steps"] == 1000 and summary["truncated_reason"] is None


def test_contracting_coupling_ends_at_a_common_fixed_point(capsys):
    # a rez obstruction: the unipotent T contracts S's coupling c quadratically
    # until it is exactly zero, where S and T share the fixed point infinity
    pair = {
        "v": 1,
        "S": matrix_obj(quat_list(1), quat_list(), quat_list(0.5), quat_list(1)),
        "T": matrix_obj(quat_list(1), quat_list(0, 0, 1), quat_list(), quat_list(1)),
    }
    assert run(capsys, "test", json.dumps(pair), "--select", "rez")[0] == 10
    code, out, err = run(capsys, "iterate", json.dumps(pair), "--steps", "200")
    assert code == 0
    summary = json.loads(err)
    assert summary["truncated_reason"] == "common fixed point reached"
    assert summary["steps"] < 20
    assert summary["convergence"]["kind"] == "converges_to_elementary"
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == summary["steps"] + 2      # header + steps 0..n
    assert float(rows[-1][rows[0].index("abs_c")]) == 0.0


def test_iterate_classifies_from_five_records(capsys):
    # --steps 3 gives records 0..3, one short of dynamics.MIN_CLASSIFY_STEPS
    for steps, classified in (("3", False), ("4", True)):
        code, _, err = run(capsys, "iterate", json.dumps(EXTREME_PAIR),
                           "--steps", steps)
        assert code == 0
        convergence = json.loads(err)["convergence"]
        assert (convergence != "too short to classify") is classified


def test_readme_pair_extreme_over_sixty_steps(capsys):
    code, out, _ = run(capsys, "extreme", json.dumps(EXTREME_PAIR), "--steps", "60")
    assert code == 11
    invariance = json.loads(out)["invariance"]
    assert invariance["verdict"] == "extremal"
    assert invariance["lhs"] == 0.0


@pytest.mark.parametrize("argv", [
    ("test", json.dumps(OVERFLOW_PAIR)),
    ("test", json.dumps(OVERFLOW_PAIR), "--format", "text"),
    ("iterate", json.dumps(OVERFLOW_PAIR), "--mode", "diagonal", "--format", "json"),
    ("iterate", json.dumps(OVERFLOW_PAIR), "--mode", "diagonal"),
    # alpha = inf - inf: the determinant overflows, the matrix is not singular
    ("invariants", json.dumps(OVERFLOW_PAIR["S"])),
    ("classify", json.dumps(OVERFLOW_PAIR["S"])),
    ("test", json.dumps(WAT_POLE_PAIR), "--select", "wat"),
    # |b||c| = inf has no floor; L^k overflows
    ("test", json.dumps(OVERFLOW_PAIR), "--select", "jss2"),
    ("test", json.dumps(JSS2_POWER_PAIR), "--select", "jss2"),
    ("extreme", json.dumps(TINY_ANGLE_PAIR), "--tol", "0"),
    ("test", json.dumps(TINY_ANGLE_PAIR), "--select", "extreme", "--tol", "0"),
    *[("iterate", json.dumps(pair), *fmt) for pair in ITERATE_OVERFLOWS.values()
      for fmt in (("--full",), ("--format", "json"))],
], ids=["test_json", "test_text", "iterate_json", "iterate_csv", "invariants",
        "classify", "wat_pole", "jss2_bc_norm", "jss2_power", "extreme_cot",
        "test_extreme_cot",
        *[f"iterate_{name}_{fmt}" for name in ITERATE_OVERFLOWS
          for fmt in ("csv", "json")]])
def test_non_finite_result_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert_one_error_line(err, "not finite")


def test_batch_non_finite_result_names_its_line(capsys, tmp_path):
    # |b||c| = inf under auto and jss2, and jss2's L^k = 2^2002
    for overflow, select in ((OVERFLOW_PAIR, "auto"), (OVERFLOW_PAIR, "jss2"),
                             (JSS2_POWER_PAIR, "jss2")):
        batch = write_batch(tmp_path, json.dumps(EXTREME_PAIR), json.dumps(overflow))
        code, out, err = run(capsys, "test", batch, "--batch", "--select", select)
        assert code == 2
        assert [json.loads(line)["line"] for line in out.splitlines()] == [1]
        assert_one_error_line(err, "line 2:", "not finite")


def _process_env(unbuffered=False):
    """The environment of a fresh interpreter: src/ importable, and stdout
    unbuffered (every write a system call) only if asked."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_process(argv, stdout, unbuffered=False):
    """The command line in a fresh interpreter: (exit code, stdout, stderr),
    stdout empty unless it is subprocess.PIPE."""
    proc = subprocess.run([sys.executable, "-m", "qmobius.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=_process_env(unbuffered), timeout=60)
    return proc.returncode, (proc.stdout or b"").decode(), proc.stderr.decode()


@pytest.mark.parametrize("command", ["test", "iterate", "batch"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, command):
    # stdout is a pipe whose reader is already gone, as in `| head` after
    # head has exited, so the first write fails whatever the timing; the
    # batch outgrows stdout's buffer, so a buffered run fails mid-batch
    argv = {
        "test": ("test", json.dumps(EXTREME_PAIR)),
        "iterate": ("iterate", json.dumps(EXTREME_PAIR), "--steps", "20", "--full"),
        "batch": ("test", write_batch(tmp_path, *[json.dumps(EXTREME_PAIR)] * 64),
                  "--batch"),
    }[command]
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = run_process(argv, write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (code, err) == (141, ""), unbuffered


def _bad_s(**entries):
    """A diagonal-T pair whose S entries are replaced by raw JSON values."""
    s = {**matrix_obj(quat_list(1), quat_list(), quat_list(), quat_list(1)),
         **entries}
    return {"v": 1, "S": s,
            "T": matrix_obj(quat_list(2), quat_list(), quat_list(), quat_list(0.5))}


# values the JSON decoder accepts but no coordinate check may: a string entry
# (once read as 1+0i+0j+0k), a string or boolean coordinate, and an integer
# beyond float range; None is a document nested 100 000 deep
BAD_INPUTS = {
    "string_entry": _bad_s(a="1000"),
    "string_coordinate": _bad_s(a=["1", 0, 0, 0]),
    "bool_coordinate": _bad_s(d=[True, 0, 0, 0]),
    "huge_integer": _bad_s(a=[10 ** 400, 0, 0, 0]),
    "deep_nesting": None,
}

NON_EXTREME_PAIR = {
    "v": 1,
    "S": matrix_obj(quat_list(1), quat_list(), quat_list(3), quat_list(1)),
    "T": EXTREME_PAIR["T"],
}

REJECTED_RUNS = [
    *[(case, form) for case in BAD_INPUTS
      for form in ("single", "batch", "invariants")],
    ("extreme_steps_negative", None),
    ("extreme_steps_zero", None),
    ("iterate_overflow_keeps_output", None),
    ("stdout_full", None),
    ("stdout_full", "batch"),
    ("output_full", None),
]


def _rejected_argv(tmp_path, case, form):
    if case in BAD_INPUTS:
        if BAD_INPUTS[case] is None:
            deep = tmp_path / "deep.json"
            deep.write_text("[" * 100_000)
            pair = matrix = line = str(deep)
        else:
            pair = json.dumps(BAD_INPUTS[case])
            matrix = json.dumps(BAD_INPUTS[case]["S"])
            line = write_batch(tmp_path, pair)
        return {"single": ("test", pair, "--select", "jss"),
                "batch": ("test", line, "--batch", "--select", "jss"),
                "invariants": ("invariants", matrix)}[form]
    return {
        "extreme_steps_negative": ("extreme", json.dumps(NON_EXTREME_PAIR),
                                   "--steps", "-3"),
        "extreme_steps_zero": ("extreme", json.dumps(EXTREME_PAIR), "--steps", "0"),
        "iterate_overflow_keeps_output": (
            "iterate", json.dumps(OVERFLOW_PAIR), "--mode", "diagonal",
            "--format", "json", "--output", str(tmp_path / "trace.json")),
        "stdout_full": (("test", write_batch(tmp_path, *[json.dumps(EXTREME_PAIR)] * 2),
                         "--batch") if form == "batch"
                        else ("test", json.dumps(EXTREME_PAIR))),
        "output_full": ("iterate", json.dumps(EXTREME_PAIR), "--output", "/dev/full"),
    }[case]


@pytest.mark.parametrize("case, form", REJECTED_RUNS,
                         ids=["-".join(filter(None, run)) for run in REJECTED_RUNS])
def test_rejected_run_is_one_error_line(capsys, tmp_path, case, form):
    argv = _rejected_argv(tmp_path, case, form)
    kept = tmp_path / "trace.json"
    kept.write_bytes(b"an earlier trace\n")
    if case.endswith("_full"):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        # buffered, stdout fails at the final flush; unbuffered, at the
        # first write
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                code, out, err = run_process(argv, full if case == "stdout_full"
                                             else subprocess.PIPE, unbuffered)
            assert (code, out) == (2, "")
            assert "Traceback" not in err
            assert_one_error_line(err, "cannot write")
        return
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert_one_error_line(err, *(["line 1:"] if form == "batch" else []))
    assert kept.read_bytes() == b"an earlier trace\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "1", "10", "1e300"])
@pytest.mark.parametrize("command", ["test", "auto", "batch", "iterate",
                                     "extreme", "invariants"])
def test_tol_must_be_finite_and_non_negative(capsys, tmp_path, command, tol):
    # a full, singular T: --tol=inf, and any finite tol >= 1, used to make
    # its shape gate pass (jss obstruction with preconditions met)
    pair = json.dumps({"v": 1, "S": matrix_obj(quat_list(5), quat_list(3),
                                                 quat_list(2), quat_list(1)),
                       "T": matrix_obj(*[quat_list(1)] * 4)})
    argv = {
        "test": ("test", pair, "--select", "jss"),
        "auto": ("test", pair),
        "batch": ("test", write_batch(tmp_path, pair), "--batch"),
        "iterate": ("iterate", pair, "--mode", "diagonal"),
        "extreme": ("extreme", pair),
        "invariants": ("invariants", json.dumps(FULL_PAIR["T"])),
    }[command]
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert_one_error_line(err, "--tol")


# --- no input ends in a traceback ------------------------------------------

_decade = st.integers(-300, 300).map(lambda e: 10.0 ** e)
_wide_coord = st.one_of(st.just(0.0), _decade, _decade.map(lambda x: -x),
                        st.floats(-2.0, 2.0))
_wide_entry = st.lists(_wide_coord, min_size=4, max_size=4)
_zero_or_wide = st.one_of(st.just(quat_list()), _wide_entry)
# T is a triangle or diagonal as often as not, so evaluators pass its gate
_wide_pair = st.builds(
    lambda s, t: {"v": 1, "S": s, "T": t},
    st.builds(matrix_obj, *[_wide_entry] * 4),
    st.builds(matrix_obj, _wide_entry, _zero_or_wide, _zero_or_wide, _wide_entry))
_EVERY_RUN = [("test", "--select", name) for name in cli.SELECTORS] + [
    ("extreme", "--steps", "4"), ("iterate", "--steps", "4")]
_TOLS = ("0", str(DEFAULT_TOL), str(cli.MAX_TOL))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(_wide_pair, st.sampled_from(_TOLS))
@example(JSS2_POWER_PAIR, "0")
@example(TINY_ANGLE_PAIR, "0")
@example(OVERFLOW_PAIR, str(cli.MAX_TOL))
@example({"v": 1, "S": TINY_ANGLE_PAIR["S"],     # subnormal angle sum
          "T": matrix_obj(quat_list(1e165, 1e-150), quat_list(), quat_list(),
                          quat_list(1e-150))}, "0")
def test_property_every_run_ends_in_an_exit_code_not_a_traceback(pair, tol):
    text = json.dumps(pair)
    for command, *extra in _EVERY_RUN:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, text, *extra, "--tol", tol])
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error:")]
        if code in (cli.EXIT_USAGE, cli.EXIT_SINGULAR):
            assert out.getvalue() == "" and len(errors) == 1
        else:
            assert code in cli.VERDICT_EXIT.values() and errors == []
