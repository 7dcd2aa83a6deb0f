import csv
import io
import json
import math

import pytest

from qmobius import cli
from qmobius.qmat import MatH2


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
    assert rows[0] == list(cli.dynamics.csv_header())
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
    batch = write_batch(tmp_path, json.dumps(EXTREME_PAIR), "{not json")
    code, out, err = run(capsys, "test", batch, "--batch")
    assert code == 2
    assert [json.loads(line)["line"] for line in out.splitlines()] == [1]
    assert_one_error_line(err, "line 2:")


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
