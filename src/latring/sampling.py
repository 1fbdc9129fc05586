"""Seeded random generators for law-checking suites.

Suites default to a fixed seed so every report is reproducible; callers
override the seed to explore.  Elements are drawn one coordinate at a time
through the coordinate view of `elements`, head first and tail last, with
integer draws on the integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial

from .elements import aligned, coords, from_coords
from .spaces import Space

DEFAULT_SEED = 0


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def rand_rat(rng: random.Random, span: int = 12, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def _rand_coord(rng: random.Random, like, low: int, high: int):
    n = rng.randint(low, high)
    return n if isinstance(like, int) else Fraction(n, rng.randint(1, 8))


# Each space's zero is the template for its coordinate layout; `Space.zero`
# builds a new element per call, so it is kept rather than rebuilt per draw.
_zero = cache(Space.zero)


def _rand_element(rng: random.Random, space: Space, low: int, high: int, max_prefix: int):
    zero = _zero(space)
    head, tail = coords(zero)
    if tail is not None:
        head = (tail,) * rng.randint(0, max_prefix)
    drawn = tuple(_rand_coord(rng, c, low, high) for c in head)
    drawn_tail = None if tail is None else _rand_coord(rng, tail, low, high)
    return from_coords(zero, drawn, drawn_tail)


def rand_element(rng: random.Random, space: Space, span: int = 12, max_prefix: int = 5):
    """A random element: each coordinate n/d with |n| <= span and 1 <= d <= 8.

    On Z the one coordinate is an integer n; a sequence gets up to
    `max_prefix` head coordinates before its tail.
    """
    return _rand_element(rng, space, -span, span, max_prefix)


def rand_pos_element(rng: random.Random, space: Space, span: int = 12):
    """As `rand_element`, with every coordinate nonnegative."""
    return _rand_element(rng, space, 0, span, 5)


def rand_matrix_rows(rng: random.Random, n: int, span: int = 9) -> tuple:
    return tuple(tuple(rand_rat(rng, span) for _ in range(n)) for _ in range(n))


def rand_in_interval(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """One of the 25 points lo + k (hi - lo) / 24, k = 0..24, drawn uniformly.

    With lo = a/b and hi = c/d the point is (24ad + k(cb - ad)) / (24bd),
    worked out on integers and built as one `Fraction`.
    """
    k = rng.randrange(25)  # the same draw as rng.randint(0, 24), one call shallower
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    ad = a * d
    return Fraction(24 * ad + k * (c * b - ad), 24 * b * d)


def rand_between(rng: random.Random, lo, hi, min_head: int = 0):
    """A random element of the interval [lo, hi], drawn coordinate by coordinate, tail last.

    Integer coordinates take a uniform integer; rational ones a point of
    `rand_in_interval`.  On sequences the first `min_head` coordinates are
    drawn one by one even where lo and hi are constant there (see `aligned`).
    """
    lo_row, hi_row = aligned(lo, hi, min_head=min_head)
    draw = rng.randint if isinstance(lo_row[0], int) else partial(rand_in_interval, rng)
    row = list(map(draw, lo_row, hi_row))
    return from_coords(lo, row, row[-1])
