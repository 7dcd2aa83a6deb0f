"""Replay the golden corpus and name every record whose output moved.

``tests/test_golden.py`` demands byte-identical output from the same
replay, so a change that moves floats in the last bits must regenerate
``expected.jsonl``. Run this script first, against the corpus as
committed, to show what the regeneration would change:

    PYTHONPATH=src python tests/golden/compare.py

It prints one line for every record that moved, then the count. A line
names the first of these that moved: the exit code, the first stderr
line, the stdout text outside numbers, or else the numbers, by their
largest deviation ``|x - y| / max(1, |x|)`` and whether it is within
``REL_TOL``. The script exits 1 when some move is beyond ``REL_TOL`` or
not numeric, else 0.
"""

from __future__ import annotations

import json
import os
import re
import sys

try:                    # imported from the tests as golden.compare
    from .generate import EXPECTED_FILE, HERE, record
except ImportError:     # run as a script
    from generate import EXPECTED_FILE, HERE, record

REL_TOL = 1e-12
# no letter, digit, _ or . before a number: t0_norm and batch-jss2 are text
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
WITHIN = f"within REL_TOL {REL_TOL:g}"


def replay(path=HERE / EXPECTED_FILE):
    """Yield (expected, got) for every record of ``path``: ``got`` reruns its
    argv through ``generate.record`` in the corpus directory, where the
    batch runs find the pairs file."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    previous = os.getcwd()
    os.chdir(HERE)
    try:
        for expected in records:
            yield expected, record(expected["name"], expected["argv"])
    finally:
        os.chdir(previous)


def moved(expected: dict, got: dict) -> str | None:
    """None for an identical record, else one line saying what moved."""
    if got == expected:
        return None
    name = expected["name"]
    if got["exit"] != expected["exit"]:
        return f"{name}: exit {expected['exit']} -> {got['exit']}"
    if NUMBER.split(got["stderr_first"]) != NUMBER.split(expected["stderr_first"]):
        return f"{name}: stderr {expected['stderr_first']!r} -> {got['stderr_first']!r}"
    if NUMBER.split(got["stdout"]) != NUMBER.split(expected["stdout"]):
        return f"{name}: stdout text outside numbers"
    deviation = max((abs(float(x) - float(y)) / max(1.0, abs(float(x)))
                     for key in ("stderr_first", "stdout")
                     for x, y in zip(NUMBER.findall(expected[key]), NUMBER.findall(got[key]))),
                    default=0.0)
    return (f"{name}: largest number deviation {deviation:.3g}, "
            + (WITHIN if deviation <= REL_TOL else f"beyond REL_TOL {REL_TOL:g}"))


if __name__ == "__main__":
    lines = [moved(expected, got) for expected, got in replay()]
    moves = [line for line in lines if line]
    print(*moves, f"{len(lines)} records, {len(moves)} moved", sep="\n")
    sys.exit(0 if all(line.endswith(WITHIN) for line in moves) else 1)
