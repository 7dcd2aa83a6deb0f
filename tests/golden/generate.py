"""Regenerate the golden corpus of command-line runs.

Writes two files next to this script:

- ``pairs.jsonl``: the seeded corpus of (S, T) pairs, one pair per line
  (a diagonal, an upper-triangular, a lower-triangular, a parabolic and a
  full T, the README extreme pair, an obstruction pair, and two elementary
  pairs: an upper T with S.c = 0 and its mirror, a lower T with S.b = 0);
- ``expected.jsonl``: one record per run of ``cli.main`` over that corpus,
  holding its argv, exit code, stdout and the first line of stderr.

``tests/test_golden.py`` replays every record and requires byte-identical
stdout and the same exit code and first stderr line. Regenerate only when
a change of output is intended, and say so where the change is recorded:

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from pathlib import Path

from qmobius import cli, qmat
from qmobius.qmat import MatH2
from qmobius.quat import Quaternion

HERE = Path(__file__).resolve().parent
PAIRS_FILE = "pairs.jsonl"
EXPECTED_FILE = "expected.jsonl"
SEED = 20150330
TRACE_STEPS = "60"


def _unit(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(*(rng.gauss(0.0, 1.0) for _ in range(4)))
        if q.norm() > 1e-3:
            return q / q.norm()


def _unit_imaginary(rng: random.Random) -> Quaternion:
    while True:
        q = Quaternion(0.0, *(rng.gauss(0.0, 1.0) for _ in range(3)))
        if q.norm() > 1e-3:
            return q / q.norm()


def _rotation(rng: random.Random, angle: float) -> Quaternion:
    """Unit quaternion of argument ``angle`` about a random axis."""
    return Quaternion(math.cos(angle)) + _unit_imaginary(rng) * math.sin(angle)


def _sigma(rng: random.Random, zero: str = "") -> MatH2:
    """A random Sigma element whose entries named in ``zero`` are exactly 0."""
    while True:
        m = MatH2(*(Quaternion() if key in zero
                    else Quaternion(*(rng.uniform(-1.0, 1.0) for _ in range(4)))
                    for key in "abcd"))
        if qmat.det(m) > 0.3:
            return qmat.normalize_to_sigma(m)


def _triangular(rng: random.Random, shape) -> MatH2:
    """``shape``(lam, eta, mu) with Re lam = Re mu inside the jg budget."""
    theta = rng.uniform(0.03, 0.06)
    return shape(_rotation(rng, theta), _unit(rng), _rotation(rng, theta))


def corpus(seed: int = SEED) -> list[tuple[str, MatH2, MatH2, tuple[str, ...]]]:
    """(name, S, T, iterate modes that fit T) for every corpus pair."""
    rng = random.Random(seed)
    zero, one = Quaternion(), Quaternion(1.0)
    r = rng.uniform(1.0, 1.02)
    diagonal_t = qmat.diagonal(_rotation(rng, rng.uniform(0.05, 0.2)) * r,
                               _rotation(rng, rng.uniform(0.05, 0.2)) * (1.0 / r))
    upper_t = _triangular(rng, qmat.upper_triangular)
    lower_t = _triangular(rng, qmat.lower_triangular)
    lam = _rotation(rng, 0.1)
    parabolic_t = qmat.upper_triangular(lam, one, lam)
    c7, s7 = math.cos(math.pi / 7), math.sin(math.pi / 7)
    return [
        ("diagonal", _sigma(rng), diagonal_t, ("diagonal", "upper", "lower")),
        ("upper", _sigma(rng), upper_t, ("upper",)),
        ("lower", _sigma(rng), lower_t, ("lower",)),
        ("parabolic", _sigma(rng), parabolic_t, ("upper",)),
        ("full", _sigma(rng), _sigma(rng), ()),
        ("readme_extreme", MatH2(one, zero, one, one),
         qmat.upper_triangular(one, Quaternion(0.0, 0.0, 1.0), one), ("upper",)),
        ("obstruction",
         MatH2(one, Quaternion(0.1), Quaternion(0.1), Quaternion(1.01)),
         qmat.diagonal(Quaternion(c7, s7), Quaternion(c7, -s7)),
         ("diagonal", "upper", "lower")),
        # zero coupling entry: S and T share a fixed point (inf, resp. 0)
        ("elementary_upper", _sigma(rng, zero="c"),
         _triangular(rng, qmat.upper_triangular), ("upper",)),
        ("elementary_lower", _sigma(rng, zero="b"),
         _triangular(rng, qmat.lower_triangular), ("lower",)),
    ]


def runs(pairs) -> list[tuple[str, list[str]]]:
    """(name, argv) of every recorded run; batch runs read PAIRS_FILE."""
    out = []
    for name, s, t, modes in pairs:
        pair = json.dumps({"v": 1, "S": s.to_dict(), "T": t.to_dict()})
        for selector in cli.SELECTORS:
            out.append((f"test-{selector}-{name}",
                        ["test", pair, "--select", selector]))
        for mode in modes:
            out.append((f"iterate-{mode}-{name}",
                        ["iterate", pair, "--full", "--steps", TRACE_STEPS,
                         "--mode", mode]))
        if modes:
            out.append((f"iterate-auto-{name}", ["iterate", pair, "--steps", "5"]))
            out.append((f"iterate-json-{name}",
                        ["iterate", pair, "--format", "json", "--steps", "5"]))
        out.append((f"extreme-{name}", ["extreme", pair]))
        for label, m in (("S", s), ("T", t)):
            matrix = json.dumps(m.to_dict())
            out.append((f"invariants-{label}-{name}", ["invariants", matrix]))
            out.append((f"classify-{label}-{name}", ["classify", matrix]))
    for selector in cli.SELECTORS:
        out.append((f"batch-{selector}",
                    ["test", PAIRS_FILE, "--batch", "--select", selector]))
    singular = json.dumps(MatH2(*(Quaternion(1.0),) * 4).to_dict())
    out.append(("invariants-singular", ["invariants", singular]))
    out.append(("classify-singular", ["classify", singular]))
    scaled = json.dumps(qmat.identity().scaled(2.0).to_dict())
    out.append(("invariants-normalize", ["invariants", scaled, "--normalize"]))
    return out


def record(name: str, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    return {"name": name, "argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr_first": lines[0] if lines else ""}


def main() -> None:
    pairs = corpus()
    with (HERE / PAIRS_FILE).open("w") as fh:
        for _, s, t, _ in pairs:
            fh.write(json.dumps({"v": 1, "S": s.to_dict(), "T": t.to_dict()}) + "\n")
    previous = os.getcwd()
    os.chdir(HERE)
    try:
        records = [record(name, argv) for name, argv in runs(pairs)]
    finally:
        os.chdir(previous)
    with (HERE / EXPECTED_FILE).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(pairs)} pairs, {len(records)} runs -> {HERE / EXPECTED_FILE}")


if __name__ == "__main__":
    main()
