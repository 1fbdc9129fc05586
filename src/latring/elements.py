"""Lattice elements: finite rational vectors and eventually-constant sequences.

Both carry the coordinatewise order, so join/meet/absolute value are
computed entrywise and all lattice identities hold exactly.  Values are
immutable and hashable; binary operations require matching shapes.

An element is one integer row `int_row` = (d, nums): coordinate i is
nums[i] / d, d > 0 and gcd(d, *nums) == 1; a sequence's row is its prefix,
then its tail, with no prefix entry equal to the tail at the end.  `==`,
hash, the order and every operation work on these integers; the `Fraction`
entries (`entries`, `prefix`, `tail`, `at`) are built only when read.  The
public constructors (through `as_rat`) and `from_int_row` both end in
`__post_init__`, the one step that trims the tail and divides out the gcd.

An integer of Z is a `ZInt`: a `FinVec` of one coordinate over the
denominator 1, so it shares the row, the operations and the order of Q^1, and
every result that is not an integer is refused.

`coords` is the one coordinate view of every shipped carrier: a denominator,
a `head` of numerators and a `tail` numerator repeated ever after (none on
Q^n or Z).  `from_coords` inverts it into an element of the same class, and
`aligned` lines elements up over one shared index range, so bounds, sampling
and solidity witnesses are each written once against this view.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import repeat
from operator import add, le, mul, sub
from typing import Iterable

from .errors import InvalidElement
from .scalars import IntRow, as_rat, combine_rows, rat_row, reduced_row

_set = object.__setattr__


class _RowElement:
    """The integer row, the operations on it, and the order; shared by FinVec and EvSeq."""

    __slots__ = ("_d", "_nums", "_fractions")

    @classmethod
    def from_int_row(cls, d: int, nums) -> "_RowElement":
        """The element whose row is nums over d > 0, trimmed and reduced by `__post_init__`."""
        x = object.__new__(cls)
        x.__post_init__(d, nums)
        return x

    def _settle(self, d: int, nums) -> None:
        d, nums = reduced_row(d, nums)
        _set(self, "_d", d)
        _set(self, "_nums", nums)
        _set(self, "_fractions", None)

    def _values(self) -> tuple[Fraction, ...]:
        """The row as Fractions, made on first read."""
        if self._fractions is None:
            _set(self, "_fractions", tuple([Fraction(a, self._d) for a in self._nums]))
        return self._fractions

    @property
    def int_row(self) -> IntRow:
        return self._d, self._nums

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._d == other._d and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._d, self._nums))

    def _combine(self, other, op):
        return self.from_int_row(*combine_rows(*self._pair(other), op))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def join(self, other):
        return self._combine(other, max)

    def meet(self, other):
        return self._combine(other, min)

    def __mul__(self, other):
        (d1, a), (d2, b) = self._pair(other)
        return self.from_int_row(d1 * d2, list(map(mul, a, b)))

    def __neg__(self):
        return self.from_int_row(self._d, [-a for a in self._nums])

    def scale(self, factor):
        q = as_rat(factor)
        return self.from_int_row(self._d * q.denominator, [q.numerator * a for a in self._nums])

    def __abs__(self):
        return self.from_int_row(self._d, [abs(a) for a in self._nums])

    def pos_part(self):
        return self.from_int_row(self._d, [a if a > 0 else 0 for a in self._nums])

    def neg_part(self):
        return self.from_int_row(self._d, [-a if a < 0 else 0 for a in self._nums])

    def is_zero(self) -> bool:
        return not any(self._nums)

    # Coordinatewise partial order, compared as integer cross-products.
    def __le__(self, other) -> bool:
        (d1, a), (d2, b) = self._pair(other)
        if d1 == d2:
            return all(map(le, a, b))
        return all(map(le, map(mul, a, repeat(d2)), map(mul, b, repeat(d1))))

    def __ge__(self, other) -> bool:
        return other.__le__(self)

    def __lt__(self, other) -> bool:
        return self.__le__(other) and self != other

    def __gt__(self, other) -> bool:
        return other.__lt__(self)


class FinVec(_RowElement):
    """Element of Q^n with coordinatewise order."""

    __slots__ = ()

    def __init__(self, entries: Iterable):
        self.__post_init__(*rat_row(entries))

    def __post_init__(self, d: int, nums) -> None:
        if not nums:
            raise InvalidElement("FinVec needs at least one coordinate")
        self._settle(d, nums)

    def __reduce__(self):
        return FinVec, (self.entries,)

    @classmethod
    def of(cls, *entries) -> "FinVec":
        return cls.from_int_row(*rat_row(entries))

    @classmethod
    def zero(cls, dim: int) -> "FinVec":
        return cls.from_int_row(1, (0,) * dim)

    @classmethod
    def constant(cls, dim: int, value) -> "FinVec":
        q = as_rat(value)
        return cls.from_int_row(q.denominator, (q.numerator,) * dim)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._values()

    @property
    def dim(self) -> int:
        return len(self._nums)

    def __getitem__(self, i: int) -> Fraction:
        return self._values()[i]

    def _pair(self, other) -> tuple[IntRow, IntRow]:
        if other.__class__ is not self.__class__ or len(other._nums) != len(self._nums):
            raise InvalidElement(f"dimension mismatch: {self!r} vs {other!r}")
        return (self._d, self._nums), (other._d, other._nums)

    def __repr__(self) -> str:
        return "FinVec(" + ", ".join(str(a) for a in self.entries) + ")"


class ZInt(FinVec):
    """An integer of the discrete Z: the one coordinate n over the denominator 1."""

    __slots__ = ()

    def __init__(self, n):
        # A plain int is the row itself; anything else is read as a rational and must reduce to one.
        self.__post_init__(*((1, (n,)) if type(n) is int else rat_row((n,))))

    def __post_init__(self, d: int, nums) -> None:
        if d != 1:
            d, nums = reduced_row(d, nums)
        if d != 1 or len(nums) != 1:
            raise InvalidElement(f"expected an integer, got the row {list(nums)} over {d}")
        _set(self, "_d", 1)
        _set(self, "_nums", tuple(nums))
        _set(self, "_fractions", None)

    def __reduce__(self):
        return ZInt, (self._nums[0],)

    def __int__(self) -> int:
        return self._nums[0]

    def __repr__(self) -> str:
        return f"ZInt({self._nums[0]})"


class EvSeq(_RowElement):
    """Eventually-constant rational sequence: a finite prefix, then a constant tail.

    Construction canonicalizes (trailing prefix entries equal to the tail are
    dropped), so two EvSeq compare equal exactly when they agree at every
    index.  The integer row ends with the tail.
    """

    __slots__ = ()

    def __init__(self, prefix: Iterable, tail):
        self.__post_init__(*rat_row((*prefix, tail)))

    def __post_init__(self, d: int, row) -> None:
        n, tail = len(row), row[-1]
        while n > 1 and row[n - 2] == tail:
            n -= 1
        self._settle(d, row if n == len(row) else row[:n])

    def __reduce__(self):
        return EvSeq, (self.prefix, self.tail)

    @classmethod
    def of(cls, *prefix, tail=0) -> "EvSeq":
        return cls(prefix, tail)

    @classmethod
    def zero(cls) -> "EvSeq":
        return cls.from_int_row(1, (0,))

    @classmethod
    def constant(cls, value) -> "EvSeq":
        q = as_rat(value)
        return cls.from_int_row(q.denominator, (q.numerator,))

    @property
    def prefix(self) -> tuple[Fraction, ...]:
        return self._values()[:-1]

    @property
    def tail(self) -> Fraction:
        return self._values()[-1]

    def at(self, i: int) -> Fraction:
        if i < 0:
            raise InvalidElement("sequence indices start at 0")
        return self._values()[min(i, len(self._nums) - 1)]

    def canonical(self) -> "EvSeq":
        # Construction already canonicalizes; re-running is the identity.
        return EvSeq.from_int_row(self._d, self._nums)

    def _pair(self, other) -> tuple[IntRow, IntRow]:
        if not isinstance(other, EvSeq):
            raise InvalidElement(f"expected EvSeq, got {other!r}")
        return aligned(self, other)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.prefix)
        return f"EvSeq([{inner}], tail={self.tail})"


def coords(x) -> tuple[int, tuple[int, ...], int | None]:
    """(d, head, tail): coordinate i of x is head[i] / d, and tail / d at every later index.

    Q^n and Z have no tail.
    """
    d, nums = x.int_row
    if isinstance(x, EvSeq):
        return d, nums[:-1], nums[-1]
    return d, nums, None


def from_coords(like, d: int, head, tail):
    """The element of like's class with coordinates head / d, then tail / d for ever.

    The inverse of `coords`; the tail is ignored on carriers that have none.
    """
    return like.from_int_row(d, (*head, tail) if isinstance(like, EvSeq) else head)


def aligned(*xs, min_head: int = 0) -> list[IntRow]:
    """The coordinates of each x over one shared index range, as (d, numerators).

    Heads are padded with their own tail to a common length, at least
    `min_head`, and elements with a tail get one more index that stands for
    the tail itself, so index i means the same coordinate in every row and
    the tail comes last.  Heads without a tail are never padded.
    """
    views, n = [], min_head
    for x in xs:
        seq = isinstance(x, EvSeq)
        d, row = x.int_row
        n = max(n, len(row) - seq)
        views.append((d, row, seq))
    return [(d, row + (row[-1],) * (n + 1 - len(row)) if seq else row) for d, row, seq in views]
