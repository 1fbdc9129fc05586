"""Extended nonnegative bounds: exact rationals plus an explicit infinity.

Per-coordinate bound functions take values in Q+ union {INF}.  `ext_mul`
uses 0 * INF = 0 because it computes exact suprema of |c * x| over a
possibly unconstrained coordinate: a zero coefficient kills the blow-up.
Boundedness decisions never rely on that convention; they branch on INF
explicitly (an unconstrained coordinate defeats every scaling).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .records import Record


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()
Extended = Union[Fraction, _Infinity]


def is_inf(v: Extended) -> bool:
    return v is INF


def ext_mul(a: Extended, b: Extended) -> Extended:
    if a is INF or b is INF:
        return Fraction(0) if a == 0 or b == 0 else INF
    return a * b


def ext_le(a: Extended, b: Extended) -> bool:
    return b is INF or (a is not INF and a <= b)


class CoordBounds(Record):
    """Per-coordinate bound function, stored sparsely.

    `pins` are (index, bound) pairs in index order; `tail` bounds every other
    coordinate.  On finite-dimensional carriers the tail is None and the pins
    cover every coordinate.  Canonical form drops each pin equal to the tail,
    so two records are equal exactly when their functions are.
    """

    pins: tuple[tuple[int, Extended], ...]
    tail: Extended | None

    def __init__(self, pins: Iterable[tuple[int, Extended]], tail: Extended | None = None):
        # Built in every bound propagation, so it sets its two fields itself; an INF tail is tested by identity.
        if tail is not None:
            pins = [p for p in pins if p[1] is not tail and (tail is INF or p[1] != tail)]
        self.__dict__.update(pins=tuple(pins), tail=tail)

    @classmethod
    def finite_dim(cls, values: Iterable[Extended]) -> "CoordBounds":
        head = tuple(values)
        b = cls(enumerate(head))
        b.__dict__["head"] = head  # the dense view every Q^n decision reads
        return b

    @classmethod
    def sequence(cls, head: Iterable[Extended], tail: Extended) -> "CoordBounds":
        return cls(enumerate(head), tail)

    @cached_property
    def head(self) -> tuple[Extended, ...]:
        """The bound of each index below `span()`, densely."""
        out = [self.tail] * self.span()
        for i, v in self.pins:
            out[i] = v
        return tuple(out)

    def at(self, i: int) -> Extended:
        pins = self.pins
        k = bisect_left(pins, (i,))
        if k < len(pins) and pins[k][0] == i:
            return pins[k][1]
        if self.tail is None:
            raise IndexError(f"coordinate {i} outside a {len(pins)}-dim bound")
        return self.tail

    def span(self) -> int:
        """Indices 0..span-1 together with the tail describe every coordinate."""
        return self.pins[-1][0] + 1 if self.pins else 0

    def overall_sup(self) -> Extended:
        values = [v for _, v in self.pins] + ([] if self.tail is None else [self.tail])
        return INF if any(v is INF for v in values) else max(values, default=Fraction(0))

    def _union(self, other: "CoordBounds") -> list[tuple[int, Extended, Extended]]:
        """(i, self.at(i), other.at(i)) at each index that either side pins, in index order."""
        p, s, q, t = self.pins, self.tail, other.pins, other.tail
        if (s is None or t is None) and not (s is t and len(p) == len(q)):
            raise IndexError("bounds of different carriers or dimensions")
        out, j, n = [], 0, len(q)
        for i, a in p:
            while j < n and q[j][0] < i:
                out.append((q[j][0], s, q[j][1]))
                j += 1
            shared = j < n and q[j][0] == i
            out.append((i, a, q[j][1] if shared else t))
            j += shared
        out += [(i, s, b) for i, b in q[j:]]
        return out

    def paired(self, other: "CoordBounds"):
        """(self.at(i), other.at(i)) once for every distinct pair of coordinates.

        A straight zip on Q^n and Z; on sequences, the indices either side
        pins, then the two tails, which stand for every other index.
        """
        if self.tail is None and other.tail is None and len(self.pins) == len(other.pins):
            return zip(self.head, other.head)
        return [(a, b) for _, a, b in self._union(other)] + [(self.tail, other.tail)]

    def times(self, other: "CoordBounds") -> "CoordBounds":
        """The coordinatewise product, with 0 * INF = 0 as in `ext_mul`."""
        pins = [(i, ext_mul(a, b)) for i, a, b in self._union(other)]
        return CoordBounds(pins, None if self.tail is None else ext_mul(self.tail, other.tail))

    def within(self, other: "CoordBounds") -> bool:
        """Every coordinate of self is at most the same coordinate of other."""
        return all(ext_le(a, b) for a, b in self.paired(other))

    def first_index(self, pred) -> int | None:
        """The least index whose bound satisfies `pred`, or None when none does."""
        hit = self.tail is not None and pred(self.tail)
        free = 0  # the index after the last pin seen
        for i, v in self.pins:
            if hit and i != free:
                return free
            if pred(v):
                return i
            free = i + 1
        return free if hit else None

    def first_infinite_index(self) -> int | None:
        return self.first_index(is_inf)
