"""Compare the current code against the golden corpus with a float tolerance.

``tests/test_golden.py`` demands byte-identical output, so a change that
moves floats in the last bits must regenerate ``expected.jsonl``. Run this
script first, against the corpus as committed, to show what the
regeneration would change:

    PYTHONPATH=src python tests/golden/compare.py [expected.jsonl]

Every record is replayed through ``cli.main``. Its exit code must match,
and its stdout and first stderr line must match once every number is
taken out; each number must agree within ``REL_TOL * max(1, |x|)``. The
script prints each record that fails this, the count of records whose
bytes changed, and the worst numeric deviation with its record. It exits
1 when some record fails, else 0.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

from generate import EXPECTED_FILE, HERE, record

REL_TOL = 1e-12
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers themselves."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def deviation(old: str, new: str) -> float | None:
    """Worst relative deviation between the numbers of two texts.

    None when the texts differ in anything but their numbers.
    """
    old_text, old_nums = split_numbers(old)
    new_text, new_nums = split_numbers(new)
    if old_text != new_text or len(old_nums) != len(new_nums):
        return None
    return max((abs(x - y) / max(1.0, abs(x)) for x, y in zip(old_nums, new_nums)),
               default=0.0)


def compare(expected_path: Path) -> int:
    records = [json.loads(line) for line in expected_path.read_text().splitlines()]
    failed, changed = [], []
    worst, worst_name = 0.0, None
    previous = os.getcwd()
    os.chdir(HERE)              # batch runs name the corpus file relatively
    try:
        for rec in records:
            got = record(rec["name"], rec["argv"])
            if (got["stdout"], got["stderr_first"]) != (rec["stdout"], rec["stderr_first"]):
                changed.append(rec["name"])
            devs = [deviation(rec[key], got[key]) for key in ("stdout", "stderr_first")]
            if got["exit"] != rec["exit"] or None in devs or max(devs) > REL_TOL:
                failed.append(rec["name"])
                print(f"DIFFERS {rec['name']}: exit {rec['exit']} -> {got['exit']}, "
                      f"stderr {rec['stderr_first']!r} -> {got['stderr_first']!r}")
                continue
            if max(devs) > worst:
                worst, worst_name = max(devs), rec["name"]
    finally:
        os.chdir(previous)
    print(f"{len(records)} records, {len(changed)} with changed bytes, "
          f"{len(failed)} beyond tolerance {REL_TOL:g}")
    print(f"worst deviation within tolerance: {worst:.3g} ({worst_name})")
    return 1 if failed else 0


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / EXPECTED_FILE
    sys.exit(compare(path))
