"""Replay the golden corpus of command-line runs (see tests/golden/generate.py).

One pass of ``compare.replay`` reruns every record through
``generate.record``, the run that wrote it, and counts the ``Quaternion``
constructions of each run. Every record must give byte-identical stdout,
the same exit code and the same first stderr line as when the corpus was
generated; ``compare.moved`` names each one that did not, and how.
"""

import json
import math

import pytest

from qmobius import quat
from golden import compare


@pytest.fixture(scope="module")
def replayed():
    """(expected, got, Quaternion.__init__ calls) of every golden record.
    Every Quaternion is built through ``Quaternion.__init__``, so the
    count watches that alone."""
    init, built, out = quat.Quaternion.__init__, [0], []

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quat.Quaternion, "__init__", counting)
        for expected, got in compare.replay():
            out.append((expected, got, built[0]))
            built[0] = 0
    return out


def test_golden_corpus_replays_identically(replayed):
    moves = [line for expected, got, _ in replayed if (line := compare.moved(expected, got))]
    assert len(replayed) == 176
    assert not moves, "\n".join(moves)


def test_test_batch_builds_no_quaternion(replayed):
    """Every selector reads the pair on coordinates from JSON decode to
    report, and so do ``iterate`` and ``extreme``: no golden ``test``,
    ``iterate`` or ``extreme`` run builds a Quaternion. The ``batch-*``
    records enter ``cli._run_batch`` under every selector, and the
    ``test-<selector>-<pair>`` records reach the same evaluators for the
    pairs that come after ``batch-auto``'s full T, where that batch stops.
    An ``iterate --mode`` that misfits T errors before any arithmetic."""
    built = {expected["name"]: count for expected, _, count in replayed}
    assert built["invariants-S-diagonal"] > 0      # parker_short's sigma, tau
    builders = [f"{name}: {count}" for name, count in built.items()
                if count and name.startswith(("test-", "batch-", "iterate-", "extreme-"))]
    assert not builders, "\n".join(builders)


def test_replay_names_every_moved_record(tmp_path):
    """On a doctored copy of the corpus's ``test`` runs (``--batch`` too),
    ``compare.moved`` names the five doctored records, each with what moved
    in it, and no other."""
    lines = (compare.HERE / "expected.jsonl").read_text().splitlines()
    records = {rec["name"]: rec for rec in map(json.loads, lines) if rec["argv"][0] == "test"}

    def nudge(name, lhs):                   # the last bit of one number
        rec = records[name]
        rec["stdout"] = rec["stdout"].replace(repr(lhs), repr(math.nextafter(lhs, 2 * lhs)), 1)

    nudge("test-jss-diagonal", json.loads(records["test-jss-diagonal"]["stdout"])["lhs"])
    nudge("batch-jg", json.loads(records["batch-jg"]["stdout"].splitlines()[1])["lhs"])
    records["test-jss-obstruction"]["exit"] = 11
    records["test-auto-full"]["stderr_first"] = "error: T is full"
    records["test-jg-upper"]["stdout"] = records["test-jg-upper"]["stdout"].replace(
        '"t0_norm"', '"t1_norm"')
    doctored = tmp_path / "expected.jsonl"
    doctored.write_text("".join(json.dumps(rec) + "\n" for rec in records.values()))
    moves = [line for expected, got in compare.replay(doctored)
             if (line := compare.moved(expected, got))]
    assert moves == [
        "test-jss-diagonal: largest number deviation 2.78e-17, within REL_TOL 1e-12",
        "test-jg-upper: stdout text outside numbers",
        "test-auto-full: stderr 'error: T is full' -> "
        "'error: T matches no test shape (neither triangle is zero)'",
        "test-jss-obstruction: exit 11 -> 10",
        "batch-jg: largest number deviation 1.11e-16, within REL_TOL 1e-12",
    ]
