"""Process launcher for the benchmark.

A child started with fork or posix_spawn inherits the high-water mark of
its parent's memory, so the max-RSS reported for it is at least the
parent's. The benchmark therefore starts this small process first and has
it start every measured process, one at a time: then a child's max-RSS is
its own.

Protocol, one JSON object per line: the benchmark writes
``{"argv": [...], "stdout": path, "stderr": path}`` on stdin; the launcher
runs the command with the given output files and replies with
``{"wall": seconds, "code": exit code, "maxrss_kb": kilobytes}``. It exits
when stdin closes.
"""

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        print(json.dumps({"wall": wall, "code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
