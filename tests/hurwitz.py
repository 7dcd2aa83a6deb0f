"""Seeded words in the Hurwitz modular group, a known discrete group.

The Hurwitz integers are the quaternions whose coordinates are all
integers or all half-integers; they form a discrete subring of H, so the
2x2 matrices over them with Dieudonne determinant 1 form a discrete
subgroup of Sigma (Kellerhals, Canad. J. Math. 55, 2003). Every
coordinate here is a small dyadic number, so products stay exact in
floating point while they stay below 2^53.
"""

import itertools
import random

from qmobius.qmat import MatH2, diagonal, identity, lower_triangular, upper_triangular
from qmobius.quat import ONE, ZERO, Quaternion

# the 24 units: +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k) / 2
UNITS = tuple(
    [Quaternion(*(sign if axis == pos else 0.0 for axis in range(4)))
     for pos in range(4) for sign in (1.0, -1.0)]
    + [Quaternion(*signs) for signs in itertools.product((0.5, -0.5), repeat=4)]
)

# [[0, 1], [-1, 0]]
FLIP = MatH2(ZERO, ONE, -ONE, ZERO)


def hurwitz_integer(rng: random.Random) -> Quaternion:
    """Coordinates all integers in [-2, 2], or all those plus 1/2."""
    offset = rng.choice((0.0, 0.5))
    return Quaternion(*(rng.randint(-2, 2) + offset for _ in range(4)))


def nonzero_hurwitz_integer(rng: random.Random) -> Quaternion:
    while True:
        eta = hurwitz_integer(rng)
        if eta.norm2() > 0.0:
            return eta


def generator(rng: random.Random) -> MatH2:
    """[[1, eta], [0, 1]], [[1, 0], [eta, 1]], diag(u, v) or the flip."""
    kind = rng.randrange(4)
    if kind == 0:
        return upper_triangular(ONE, hurwitz_integer(rng), ONE)
    if kind == 1:
        return lower_triangular(ONE, hurwitz_integer(rng), ONE)
    if kind == 2:
        return diagonal(rng.choice(UNITS), rng.choice(UNITS))
    return FLIP


def word(rng: random.Random) -> MatH2:
    """The product of 1 to 4 generators."""
    m = identity()
    for _ in range(rng.randint(1, 4)):
        m = m @ generator(rng)
    return m


def pairs(rng: random.Random, count: int):
    """Seeded pairs of the Hurwitz group: a word S, and a unipotent upper,
    a unipotent lower, a diag(unit, unit) generator or a word T."""
    for _ in range(count):
        s = word(rng)
        kind = rng.randrange(4)
        if kind == 0:
            t = upper_triangular(ONE, hurwitz_integer(rng), ONE)
        elif kind == 1:
            t = lower_triangular(ONE, hurwitz_integer(rng), ONE)
        elif kind == 2:
            t = diagonal(rng.choice(UNITS), rng.choice(UNITS))
        else:
            t = word(rng)
        yield s, t


# the entry coordinates of +-I: the one elementary T of these pairs that the
# coupling gates do not catch
PLUS_MINUS_I = {identity()._coords, identity().scaled(-1.0)._coords}


def is_hurwitz(coords) -> bool:
    """Whether four coordinates are all integers or all half-integers."""
    doubled = [2.0 * x for x in coords]
    if not all(d.is_integer() for d in doubled):
        return False
    return len({d % 2.0 for d in doubled}) == 1
