"""Quaternion and 2x2 quaternionic matrix arithmetic on plain tuples.

The benchmark builds its inputs and checks the program's outputs with this
module, never with the package under test. A quaternion is a tuple
``(w, x, y, z)``; a matrix is a tuple ``(a, b, c, d)`` of quaternions,
row-major [[a, b], [c, d]].
"""

from __future__ import annotations

import math

ZERO = (0.0, 0.0, 0.0, 0.0)
ONE = (1.0, 0.0, 0.0, 0.0)


def mul(p, q):
    """Hamilton product p q (i j = k, j k = i, k i = j)."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def scale(p, s: float):
    return (p[0] * s, p[1] * s, p[2] * s, p[3] * s)


def norm(p) -> float:
    return math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3])


def im_norm(p) -> float:
    return math.sqrt(p[1] * p[1] + p[2] * p[2] + p[3] * p[3])


def inv(p):
    n2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3]
    return (p[0] / n2, -p[1] / n2, -p[2] / n2, -p[3] / n2)


def matmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))


def max_entry_norm(m) -> float:
    return max(norm(e) for e in m)


def sigma_matrix(a, b, c):
    """[[a, b], [c, a^-1 + c a^-1 b]], whose determinant is exactly 1.

    a d - a c a^-1 b = 1 with this d, and for a != 0 the Dieudonne
    determinant is |a d - a c a^-1 b|.
    """
    ainv = inv(a)
    return (a, b, c, add(ainv, mul(mul(c, ainv), b)))


def encode_matrix(m) -> dict:
    return {key: list(entry) for key, entry in zip("abcd", m)}
