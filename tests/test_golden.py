"""Replay the golden corpus of command-line runs (see tests/golden/generate.py).

Every record is replayed through ``generate.record``, the run that wrote
it, and must give byte-identical stdout, the same exit code and the same
first stderr line as when the corpus was generated.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qmobius import cli, qmat, quat
from golden.generate import record

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_corpus_replays_identically(monkeypatch):
    monkeypatch.chdir(GOLDEN)          # batch runs name the corpus file relatively
    records = [json.loads(line)
               for line in (GOLDEN / "expected.jsonl").read_text().splitlines()]
    mismatched = [rec["name"] for rec in records
                  if record(rec["name"], rec["argv"]) != rec]
    assert len(records) == 176
    assert mismatched == []


def test_test_batch_builds_no_quaternion(tmp_path):
    """Every selector reads the pair on coordinates from JSON decode to
    report: no ``test --batch`` line of a golden pair builds a Quaternion,
    and neither does ``iterate`` (each mode, and JSON) or ``extreme`` on a
    golden pair. Every Quaternion is built through ``Quaternion.__init__``,
    so the probe watches that alone."""
    constructor = quat.Quaternion.__init__.__code__
    built = []

    def probe(frame, event, arg):
        if event == "call" and frame.f_code is constructor:
            built.append(frame.f_code.co_name)

    def run(argv):
        out = io.StringIO()
        sys.setprofile(probe)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        finally:
            sys.setprofile(None)
        return out.getvalue().splitlines()

    run(["invariants", json.dumps({"a": [1, 0, 0, 0], "b": [0, 0, 0, 0],
                                   "c": [0, 0, 0, 0], "d": [1, 0, 0, 0]})])
    assert built, "the probe sees a construction"    # parker_short's sigma, tau
    built.clear()
    pairs = (GOLDEN / "pairs.jsonl").read_text().splitlines()
    reports = 0
    for select in cli.SELECTORS:
        for number, pair in enumerate(pairs):
            # one file per pair: a batch stops at its first failing line
            path = tmp_path / f"{select}-{number}.jsonl"
            path.write_text(pair + "\n")
            reports += len(run(["test", str(path), "--batch", "--select", select]))
    assert reports == len(cli.SELECTORS) * len(pairs) - 1     # auto: the full T
    traces = 0
    for pair in pairs:
        for extra in (*(["--mode", mode] for mode in ("auto", *qmat.MODES)),
                      ["--format", "json"]):
            traces += bool(run(["iterate", pair, "--steps", "5", *extra]))
        traces += bool(run(["extreme", pair, "--steps", "5"]))
    assert traces == 36         # of 45: the rest are a T that misfits the mode
    assert built == []
