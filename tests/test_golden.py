"""Replay the golden corpus of command-line runs (see tests/golden/generate.py).

Every record must give byte-identical stdout, the same exit code and the
same first stderr line as when the corpus was generated.
"""

import contextlib
import io
import json
from pathlib import Path

from qmobius import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_corpus_replays_identically(monkeypatch):
    monkeypatch.chdir(GOLDEN)          # batch runs name the corpus file relatively
    records = [json.loads(line)
               for line in (GOLDEN / "expected.jsonl").read_text().splitlines()]
    mismatched = []
    for rec in records:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(rec["argv"])
        lines = err.getvalue().splitlines()
        got = (code, lines[0] if lines else "", out.getvalue())
        if got != (rec["exit"], rec["stderr_first"], rec["stdout"]):
            mismatched.append(rec["name"])
    assert len(records) == 134
    assert mismatched == []
