"""Extended nonnegative bounds: exact rationals plus an explicit infinity.

Per-coordinate bound functions take values in Q+ union {INF}.  `ext_mul`
uses 0 * INF = 0 because it computes exact suprema of |c * x| over a
possibly unconstrained coordinate: a zero coefficient kills the blow-up.
Boundedness decisions never rely on that convention; they branch on INF
explicitly (an unconstrained coordinate defeats every scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union


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
    if is_inf(a) and is_inf(b):
        return INF
    if is_inf(a):
        return INF if b != 0 else Fraction(0)
    if is_inf(b):
        return INF if a != 0 else Fraction(0)
    return a * b


def ext_max(values: Iterable[Extended]) -> Extended:
    best: Extended = Fraction(0)
    for v in values:
        if is_inf(v):
            return INF
        if v > best:
            best = v
    return best


def ext_le(a: Extended, b: Extended) -> bool:
    if is_inf(b):
        return True
    if is_inf(a):
        return False
    return a <= b


@dataclass(frozen=True)
class CoordBounds:
    """Per-coordinate bound function.

    `head` covers the leading coordinates; `tail` covers every later index
    (None for finite-dimensional carriers).  Canonical form trims trailing
    head entries equal to the tail, mirroring EvSeq.
    """

    head: tuple[Extended, ...]
    tail: Extended | None = None

    def __post_init__(self):
        head = list(self.head)
        if self.tail is not None:
            while head and head[-1] == self.tail:
                head.pop()
        object.__setattr__(self, "head", tuple(head))

    @classmethod
    def finite_dim(cls, values: Iterable[Extended]) -> "CoordBounds":
        return cls(tuple(values), None)

    @classmethod
    def sequence(cls, head: Iterable[Extended], tail: Extended) -> "CoordBounds":
        return cls(tuple(head), tail)

    def at(self, i: int) -> Extended:
        if i < len(self.head):
            return self.head[i]
        if self.tail is None:
            raise IndexError(f"coordinate {i} outside a {len(self.head)}-dim bound")
        return self.tail

    def span(self) -> int:
        """Indices 0..span-1 together with the tail describe every coordinate."""
        return len(self.head)

    def overall_sup(self) -> Extended:
        values = list(self.head)
        if self.tail is not None:
            values.append(self.tail)
        return ext_max(values)

    def paired(self, other: "CoordBounds"):
        """(self.at(i), other.at(i)) once for every distinct pair of coordinates.

        On sequences the last index stands for every later one.
        """
        n = max(self.span(), other.span()) + (self.tail is not None)
        return ((self.at(i), other.at(i)) for i in range(n))

    def within(self, other: "CoordBounds") -> bool:
        """Every coordinate of self is at most the same coordinate of other."""
        return all(ext_le(a, b) for a, b in self.paired(other))

    def first_infinite_index(self) -> int | None:
        for i, v in enumerate(self.head):
            if is_inf(v):
                return i
        if self.tail is not None and is_inf(self.tail):
            return len(self.head)
        return None
