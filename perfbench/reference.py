"""Fixed pure-Python job that gauges how fast the host runs right now.

The benchmark runs it as a child process next to the ``qmobius`` processes
and scales their rates by its wall time (see run.py). It uses none of the
package: it starts an interpreter, imports the standard modules the CLI
imports, and then does the same kind of work as the toolkit (small frozen
dataclass values, Hamilton products, JSON encoding and decoding), so a
host that slows the toolkit down slows this job down alike.

Run ``python3 perfbench/reference.py`` to see its checksum.
"""

from __future__ import annotations

import argparse  # noqa: F401  imported for its start-up cost, as the CLI does
import csv  # noqa: F401
import enum  # noqa: F401
import json
import math
from dataclasses import dataclass

ROUNDS = 400


@dataclass(frozen=True, slots=True)
class Quat:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def __mul__(self, q):
        return Quat(self.w * q.w - self.x * q.x - self.y * q.y - self.z * q.z,
                    self.w * q.x + self.x * q.w + self.y * q.z - self.z * q.y,
                    self.w * q.y - self.x * q.z + self.y * q.w + self.z * q.x,
                    self.w * q.z + self.x * q.y - self.y * q.x + self.z * q.w)

    def __add__(self, q):
        return Quat(self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    def inverse(self):
        n2 = self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        return Quat(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)


def matmul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def main() -> None:
    m = tuple(Quat(math.cos(i), math.sin(i), 0.5, -0.25) for i in range(4))
    t = tuple(Quat(0.5, 0.5, 0.5, 0.5).inverse() for _ in range(4))
    checksum = 0.0
    for i in range(ROUNDS):
        p = matmul(matmul(m, t), m)
        scale = 1.0 / math.sqrt(sum(e.w * e.w + e.x * e.x + e.y * e.y + e.z * e.z for e in p))
        m = tuple(Quat(e.w * scale, e.x * scale, e.y * scale, e.z * scale) for e in p)
        text = json.dumps({"line": i, "entries": [[e.w, e.x, e.y, e.z] for e in m]})
        checksum += json.loads(text)["entries"][0][0]
    print(f"{checksum:.6f}")


if __name__ == "__main__":
    main()
