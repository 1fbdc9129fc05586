"""Seeded random generators for law-checking suites.

Suites default to a fixed seed so every report is reproducible; callers
override the seed to explore.  Elements are drawn one coordinate at a time
through the coordinate view of `elements`, head first and tail last, with
integer draws on the integers, and built straight from integer numerators
over one denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat
from operator import mul

from .elements import EvSeq, FinVec, ZInt, aligned, from_coords
from .scalars import over_lcm
from .spaces import Space, SpaceKind


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def rand_rat(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 8))


def _rand_element(rng: random.Random, space: Space, low: int, high: int, max_prefix: int):
    kind = space.kind
    if kind is SpaceKind.Z_DISCRETE:
        return ZInt(rng.randint(low, high))
    seq = kind is SpaceKind.EVSEQ
    n = rng.randint(0, max_prefix) + 1 if seq else space.dim
    # Each coordinate draws its numerator, then its denominator; a sequence's last one is also its tail.
    d, row = over_lcm(*zip(*[(rng.randint(low, high), rng.randint(1, 8)) for _ in range(n)]))
    return EvSeq.from_int_row(d, (*row, row[-1])) if seq else FinVec.from_int_row(d, row)


def rand_element(rng: random.Random, space: Space, span: int = 12, max_prefix: int = 5):
    """A random element: each coordinate n/d with |n| <= span and 1 <= d <= 8.

    On Z the one coordinate is an integer n; a sequence gets up to
    `max_prefix` head coordinates before its tail.
    """
    return _rand_element(rng, space, -span, span, max_prefix)


def rand_pos_element(rng: random.Random, space: Space):
    """As `rand_element`, with every coordinate nonnegative."""
    return _rand_element(rng, space, 0, 12, 5)


def rand_matrix_rows(rng: random.Random, n: int, span: int = 9) -> tuple:
    return tuple([tuple([rand_rat(rng, span) for _ in range(n)]) for _ in range(n)])


def rand_in_interval(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """One of the 25 points lo + k (hi - lo) / 24, k = 0..24, drawn uniformly (see `rand_between`)."""
    return rand_between(rng, FinVec.of(lo), FinVec.of(hi))[0]


def rand_between(rng: random.Random, lo, hi, min_head: int = 0):
    """A random element of the interval [lo, hi], drawn coordinate by coordinate, tail last.

    Integer coordinates take a uniform integer; rational ones one of the 25
    points lo + k (hi - lo) / 24, k drawn uniformly, worked out on the
    numerators of lo and hi over the common denominator 24 d_lo d_hi.  On
    sequences the first `min_head` coordinates are drawn one by one even
    where lo and hi are constant there (see `aligned`).
    """
    if isinstance(lo, ZInt):
        return ZInt(rng.randint(int(lo), int(hi)))
    (dl, lo_row), (dh, hi_row) = aligned(lo, hi, min_head=min_head)
    draw = rng.randrange  # the same draw as rng.randint(0, 24), one call shallower
    row = [24 * a + draw(25) * (c - a) for a, c in zip(map(mul, lo_row, repeat(dh)), map(mul, hi_row, repeat(dl)))]
    return from_coords(lo, 24 * dl * dh, row, row[-1])
