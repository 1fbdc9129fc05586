"""Lattice elements: finite rational vectors and eventually-constant sequences.

Both carry the coordinatewise order, so join/meet/absolute value are
computed entrywise and all lattice identities hold exactly.  Values are
immutable and hashable; binary operations require matching shapes.

The coordinate view.  Every shipped carrier is read one coordinate at a
time, and `coords` is the one place that knows how: an element is a `head`
of explicit coordinates and a `tail` that every later coordinate repeats.
A vector in Q^n is its entries with no tail, a sequence is its prefix and
tail, and an integer (the carrier Z) is one coordinate with no tail.
`from_coords` rebuilds an element of a given carrier from such a pair, and
`aligned` lines several elements up over one shared index range.  Jobs that
work coordinatewise (bounds, sampling, solidity witnesses, preimages) are
written once against this view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import InvalidElement
from .scalars import as_rat

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FinVec:
    """Element of Q^n with coordinatewise order."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(as_rat(e) for e in self.entries))
        if not self.entries:
            raise InvalidElement("FinVec needs at least one coordinate")

    @classmethod
    def of(cls, *entries) -> "FinVec":
        return cls(tuple(entries))

    @classmethod
    def zero(cls, dim: int) -> "FinVec":
        return cls((_ZERO,) * dim)

    @classmethod
    def constant(cls, dim: int, value) -> "FinVec":
        return cls((as_rat(value),) * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "FinVec":
        entries = [_ZERO] * dim
        entries[index] = Fraction(1)
        return cls(tuple(entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def _zip(self, other: "FinVec", op: Callable[[Fraction, Fraction], Fraction]) -> "FinVec":
        if not isinstance(other, FinVec) or other.dim != self.dim:
            raise InvalidElement(f"dimension mismatch: {self!r} vs {other!r}")
        return FinVec(tuple(op(a, b) for a, b in zip(self.entries, other.entries)))

    def __add__(self, other: "FinVec") -> "FinVec":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "FinVec":
        return FinVec(tuple(-a for a in self.entries))

    def __mul__(self, other: "FinVec") -> "FinVec":
        return self._zip(other, lambda a, b: a * b)

    def scale(self, factor) -> "FinVec":
        q = as_rat(factor)
        return FinVec(tuple(q * a for a in self.entries))

    def join(self, other: "FinVec") -> "FinVec":
        return self._zip(other, max)

    def meet(self, other: "FinVec") -> "FinVec":
        return self._zip(other, min)

    def __abs__(self) -> "FinVec":
        return FinVec(tuple(abs(a) for a in self.entries))

    def pos_part(self) -> "FinVec":
        return FinVec(tuple(max(a, _ZERO) for a in self.entries))

    def neg_part(self) -> "FinVec":
        return FinVec(tuple(max(-a, _ZERO) for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    # Coordinatewise partial order.
    def __le__(self, other: "FinVec") -> bool:
        if not isinstance(other, FinVec) or other.dim != self.dim:
            raise InvalidElement(f"dimension mismatch: {self!r} vs {other!r}")
        return _all_le(self.entries, other.entries)

    def __ge__(self, other: "FinVec") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "FinVec") -> bool:
        return self.__le__(other) and self != other

    def __gt__(self, other: "FinVec") -> bool:
        return other.__lt__(self)

    def __repr__(self) -> str:
        return "FinVec(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class EvSeq:
    """Eventually-constant rational sequence: a finite prefix, then a constant tail.

    Construction canonicalizes (trailing prefix entries equal to the tail are
    dropped), so two EvSeq compare equal exactly when they agree at every
    index.
    """

    prefix: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        entries = [as_rat(e) for e in self.prefix]
        tail = as_rat(self.tail)
        while entries and entries[-1] == tail:
            entries.pop()
        object.__setattr__(self, "prefix", tuple(entries))
        object.__setattr__(self, "tail", tail)

    @classmethod
    def of(cls, *prefix, tail=0) -> "EvSeq":
        return cls(tuple(prefix), tail)

    @classmethod
    def zero(cls) -> "EvSeq":
        return cls((), 0)

    @classmethod
    def constant(cls, value) -> "EvSeq":
        return cls((), value)

    @classmethod
    def unit(cls, index: int) -> "EvSeq":
        entries = [_ZERO] * (index + 1)
        entries[index] = Fraction(1)
        return cls(tuple(entries), 0)

    def at(self, i: int) -> Fraction:
        if i < 0:
            raise InvalidElement("sequence indices start at 0")
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def canonical(self) -> "EvSeq":
        # Construction already canonicalizes; re-running is the identity.
        return EvSeq(self.prefix, self.tail)

    def _zip(self, other: "EvSeq", op: Callable[[Fraction, Fraction], Fraction]) -> "EvSeq":
        if not isinstance(other, EvSeq):
            raise InvalidElement(f"expected EvSeq, got {other!r}")
        n = max(len(self.prefix), len(other.prefix))
        entries = tuple(op(self.at(i), other.at(i)) for i in range(n))
        return EvSeq(entries, op(self.tail, other.tail))

    def __add__(self, other: "EvSeq") -> "EvSeq":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "EvSeq") -> "EvSeq":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "EvSeq":
        return EvSeq(tuple(-a for a in self.prefix), -self.tail)

    def __mul__(self, other: "EvSeq") -> "EvSeq":
        return self._zip(other, lambda a, b: a * b)

    def scale(self, factor) -> "EvSeq":
        q = as_rat(factor)
        return EvSeq(tuple(q * a for a in self.prefix), q * self.tail)

    def join(self, other: "EvSeq") -> "EvSeq":
        return self._zip(other, max)

    def meet(self, other: "EvSeq") -> "EvSeq":
        return self._zip(other, min)

    def __abs__(self) -> "EvSeq":
        return EvSeq(tuple(abs(a) for a in self.prefix), abs(self.tail))

    def pos_part(self) -> "EvSeq":
        return EvSeq(tuple(max(a, _ZERO) for a in self.prefix), max(self.tail, _ZERO))

    def neg_part(self) -> "EvSeq":
        return EvSeq(tuple(max(-a, _ZERO) for a in self.prefix), max(-self.tail, _ZERO))

    def is_zero(self) -> bool:
        return self.tail == 0 and not self.prefix

    def __le__(self, other: "EvSeq") -> bool:
        if not isinstance(other, EvSeq):
            raise InvalidElement(f"expected EvSeq, got {other!r}")
        return _all_le(*aligned(self, other))

    def __ge__(self, other: "EvSeq") -> bool:
        return other.__le__(self)

    def __lt__(self, other: "EvSeq") -> bool:
        return self.__le__(other) and self != other

    def __gt__(self, other: "EvSeq") -> bool:
        return other.__lt__(self)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.prefix)
        return f"EvSeq([{inner}], tail={self.tail})"


def _all_le(xs, ys) -> bool:
    """xs[i] <= ys[i] at every i, compared as integer cross-products."""
    return all(a.numerator * b.denominator <= b.numerator * a.denominator for a, b in zip(xs, ys))


def coords(x) -> tuple[tuple, Fraction | None]:
    """(head, tail): the explicit coordinates of x, then the value of every later one.

    Q^n gives its entries and no tail, a sequence its prefix and tail, and an
    integer the single coordinate (x,) and no tail.
    """
    if isinstance(x, FinVec):
        return x.entries, None
    if isinstance(x, EvSeq):
        return x.prefix, x.tail
    return (x,), None


def from_coords(like, head, tail):
    """The element of like's carrier with coordinates head, then tail for ever.

    The inverse of `coords`; the tail is ignored on carriers that have none.
    """
    if isinstance(like, FinVec):
        return FinVec(tuple(head))
    if isinstance(like, EvSeq):
        return EvSeq(tuple(head), tail)
    (x,) = head
    return x


def aligned(*xs, min_head: int = 0) -> list[tuple]:
    """The coordinates of each x over one shared index range.

    Heads are padded with their own tail to a common length, at least
    `min_head`, and elements with a tail get one more index that stands for
    the tail itself, so index i means the same coordinate in every row and
    the tail comes last.  Heads without a tail are never padded.
    """
    views, n = [], min_head
    for x in xs:
        view = coords(x)
        views.append(view)
        if len(view[0]) > n:
            n = len(view[0])
    return [head if tail is None else head + (tail,) * (n + 1 - len(head)) for head, tail in views]


def coord(x, i: int):
    """Coordinate i of x."""
    head, tail = coords(x)
    return tail if tail is not None and i >= len(head) else head[i]
