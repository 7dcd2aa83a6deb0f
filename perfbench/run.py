"""Benchmark of the qmobius command-line toolkit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

The workload inputs are generated from the seed (see gen.py) into
``.perfbench_run/<workload>/``. With ``--trace 0`` the benchmark drives the
CLI from outside, one ``qmobius`` process at a time (a closed loop with one
client), built from ``src/`` of the checkout. It measures:

- ``setup_s``: median wall time of a process that evaluates a single pair
  (interpreter start, package import, argparse);
- ``ops_per_s``: operations per wall second over one round of the workload's
  processes, median over the rounds that fit in ``--seconds``; an operation
  is a report line (screen, commutator) or a trace step (trace);
- ``peak_rss_mb``: the largest max-RSS of any ``qmobius`` process. The
  processes are started by launch.py, so that figure is their own.

Both timings are reported at a fixed host speed. On a shared host the speed
of the CPU drifts by tens of percent over minutes, which would swamp any
change worth measuring, so a fixed pure-Python job (reference.py) runs
before, between and after the processes of every round, and each wall
time is scaled by REFERENCE_NOMINAL_S over the mean of the two reference
times around it. The raw medians are printed on the line before the
result.

With ``--trace 1`` it runs the same round in-process with timing wrappers
around each module's public functions and reports per-layer numbers (see
tracer.py). Every output is checked (see check.py); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and ``fail_frac`` is printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import gen

SETUP_REPEATS = 5
# what the installed ``qmobius`` console script runs
ENTRY = "import sys; from qmobius.cli import main; sys.exit(main())"
HERE = Path(__file__).resolve().parent
# nominal wall seconds of the reference job, about its time on an unloaded
# 2-core x86-64 VM with Python 3.11; timings are reported at the host speed
# at which the reference takes this long
REFERENCE_NOMINAL_S = 0.15


class Tally:
    """Operations attempted and failed; each distinct output is checked once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._seen: dict = {}

    def add(self, job: dict, stdout: str, stderr: str, code: int) -> int:
        """Account one process's output; returns the operations it completed."""
        key = (json.dumps(job["argv"]),
               hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).digest())
        if key not in self._seen:
            self._seen[key] = check.check(job, stdout, stderr, code)
            for err in self._seen[key][3]:
                self.errors.append(f"{' '.join(job['argv'])}: {err}")
        attempted, failed, ops, _ = self._seen[key]
        self.attempted += attempted
        self.failed += failed
        return ops


class Runner:
    """Runs processes one at a time through launch.py, outputs in files.

    Use as a context manager, created before the benchmark grows: the
    launcher is started on entry and stopped and waited for on exit.
    """

    def __init__(self, src: Path, rundir: Path):
        self.rundir = rundir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("PYTHONSTARTUP", None)
        self.out = rundir / "out"
        self.peak_rss_kb = 0
        self.launcher = None

    def __enter__(self):
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def _spawn(self, argv, stdout: Path, stderr: Path) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        self.launcher.stdin.write(json.dumps(
            {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def run(self, job: dict):
        """(wall seconds, exit code, stdout, stderr) of one ``qmobius`` process."""
        # argv[1] of every job is its input file, relative to the run dir
        command, name, *rest = job["argv"]
        argv = [sys.executable, "-c", ENTRY, command, str(self.rundir / name), *rest]
        out, err = self.out / "stdout", self.out / "stderr"
        res = self._spawn(argv, out, err)
        self.peak_rss_kb = max(self.peak_rss_kb, res["maxrss_kb"])
        return res["wall"], res["code"], out.read_text(), err.read_text()

    def reference(self) -> float:
        """Wall seconds of one run of the reference job."""
        out = self.out / "reference"
        res = self._spawn([sys.executable, str(HERE / "reference.py")], out, out)
        if res["code"] != 0:
            raise RuntimeError(f"the reference job failed: {out.read_text()[:200]}")
        return res["wall"]

    def speed_scaled(self, jobs, account):
        """Run ``jobs`` with a reference run before, between and after them.

        Returns each job's wall time and the same scaled to the nominal
        host speed by the mean of the two reference runs around it, and the
        total wall time of the reference runs. ``account(job, stdout,
        stderr, code)`` is called after each job, outside the timed span.
        """
        refs = [self.reference()]
        walls = []
        for job in jobs:
            wall, code, out, err = self.run(job)
            walls.append(wall)
            account(job, out, err, code)
            refs.append(self.reference())
        scaled = [wall * 2.0 * REFERENCE_NOMINAL_S / (before + after)
                  for wall, before, after in zip(walls, refs, refs[1:])]
        return walls, scaled, sum(refs)


def measure(manifest: dict, runner: Runner, tally: Tally, seconds: float) -> dict:
    runner.run(manifest["setup"][0])  # fills the bytecode cache; not timed
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        walls, scaled, _ = runner.speed_scaled(manifest["setup"], tally.add)
        setup_raw += walls
        setup_scaled += scaled
    raw_rates, rates = [], []
    busy = 0.0
    while not rates or busy < seconds:
        ops = []
        walls, scaled, ref_wall = runner.speed_scaled(
            manifest["jobs"], lambda *out: ops.append(tally.add(*out)))
        busy += sum(walls) + ref_wall
        raw_rates.append(sum(ops) / sum(walls))
        rates.append(sum(ops) / sum(scaled))
    print(f"# {len(rates)} rounds, ops/s per round at nominal speed: "
          + " ".join(f"{r:.1f}" for r in rates))
    print(f"# raw wall medians: ops_per_s={statistics.median(raw_rates):.6g} 1/s, "
          f"setup_s={statistics.median(setup_raw):.6g} s")
    return {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qmobius" / "cli.py").is_file():
        print(f"error: no qmobius sources under {src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    rundir = root / ".perfbench_run" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    manifest = gen.generate(args.workload, args.seed, rundir)
    tally = Tally()
    if args.trace:
        import tracer
        metrics = tracer.traced_run(manifest, rundir, src, tally, args.seconds)
    else:
        with Runner(src, rundir) as runner:
            metrics = measure(manifest, runner, tally, args.seconds)
    for err in tally.errors[:20]:
        print(f"# FAIL {err}")
    fail_frac = tally.failed / tally.attempted
    print("# " + ", ".join(f"{name}={m['value']:.6g} {m['unit']}"
                           for name, m in metrics.items())
          + f", fail_frac={fail_frac:.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
