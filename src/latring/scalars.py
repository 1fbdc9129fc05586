"""Exact rational scalars, and rows of them over one integer denominator.

Every quantity in the library is a `fractions.Fraction`: normalized
(positive denominator, gcd 1) and exact under all arithmetic.  Floats are
rejected at the boundary so no binary rounding can sneak in.

A rational literal is a JSON integer (not a boolean) or a string of the
grammar `[+-]?[0-9]+(/[0-9]+)?` with a nonzero denominator: ASCII digits
only, no spaces, underscores, decimal points or exponents.  The grammar is
written once, in `_GRAMMAR`.  `read_rat` reads one literal into integers;
`as_rat` builds the `Fraction`.

An integer row `(d, nums)` holds the values nums[j] / d with d > 0 and
gcd(d, *nums) == 1, so equal rows are equal pairs (`reduced_row`); vectors,
sequences and matrix rows are all held this way.  `read_row` reads a list of
literals straight into one: the whole row is checked against the grammar in
one match and split at `/`, and a row that fails anywhere on that path is
read again literal by literal through `read_rat`, so it accepts exactly what
`read_rat` accepts and raises the error of its first bad literal.  `read_rows`
reads the rows of a matrix as a whole, each distinct literal once, over one
denominator for the whole matrix, and every row from lookups; it reads row by
row through `read_row` where few literals repeat or where a literal would be
refused.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterator, Sequence

from .errors import InvalidElement

_GRAMMAR = r"[+-]?[0-9]+(?:/[0-9]+)?"
_LITERAL = re.compile(_GRAMMAR)
# A row's literals joined by a character no literal holds, matched at once.
_SEP = "\x00"
_ROW = re.compile(f"{_GRAMMAR}(?:{_SEP}{_GRAMMAR})*")

IntRow = tuple[int, tuple[int, ...]]

# `read_rows` puts a matrix over one denominator D only while D has at most
# this many bits.  On 64x64 matrices of numerators -9..9 whose rows each mix
# four of the matrix's prime denominators, one shared D cost as much as one
# lcm per row at 60 bits, 0.8x at 43 and 1.25x at 65 (past 60 bits CPython's
# `math.gcd` leaves its two-digit fast path).  48 bits leaves the numerators
# over D room below that.
MAX_SHARED_DEN_BITS = 48


def read_rat(value) -> tuple[int, int]:
    """The literal `value` as integers (p, q) with q > 0, not necessarily in lowest terms."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        if _LITERAL.fullmatch(value) is None:
            raise InvalidElement(f"cannot parse rational literal {value!r}; expected p or p/q in ASCII digits")
        num, _, den = value.partition("/")
        try:
            p, q = int(num), int(den) if den else 1
        except ValueError as exc:
            # int() refuses digit strings beyond the interpreter's length limit.
            raise InvalidElement(f"rational literal too long ({len(value)} characters)") from exc
        if q == 0:
            raise InvalidElement(f"zero denominator in rational literal {value!r}")
        return p, q
    if isinstance(value, bool):
        raise InvalidElement("booleans are not rational scalars")
    if isinstance(value, float):
        raise InvalidElement(f"floats are not accepted (got {value!r}); pass 'p/q' strings")
    raise InvalidElement(f"cannot interpret {value!r} as a rational scalar")


def as_rat(value) -> Fraction:
    """Coerce a Fraction or a rational literal (see `read_rat`) to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*read_rat(value))


def reduced_row(d: int, nums: Sequence[int]) -> IntRow:
    """The row nums / d with gcd(d, *nums) divided out, so equal rows are equal pairs."""
    g = math.gcd(d, *nums)
    if g == 1:
        return d, tuple(nums)
    return d // g, tuple([a // g for a in nums])


def over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, list[int]]:
    """The values nums[i] / dens[i] as numerators over the lcm of the denominators, not reduced."""
    distinct = set(dens)
    d = math.lcm(*distinct)
    scale = {q: d // q for q in distinct}
    return d, list(map(mul, nums, map(scale.__getitem__, dens)))


def rat_row(values) -> tuple[int, list[int]]:
    """Rationals (see `as_rat`) over the lcm of their denominators: reduced, as each Fraction is."""
    qs = [as_rat(v) for v in values]
    d = math.lcm(*[q.denominator for q in qs])
    return d, [q.numerator * (d // q.denominator) for q in qs]


def combine_rows(r: IntRow, s: IntRow, op) -> tuple[int, list[int]]:
    """op (add, sub, max or min) entrywise over two rows at their least common denominator, not reduced."""
    (d1, a), (d2, b) = r, s
    if d1 == d2:
        return d1, list(map(op, a, b))
    g = math.gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return d1 * m1, list(map(op, map(mul, a, repeat(m1)), map(mul, b, repeat(m2))))


def _split_row(values: list) -> tuple[list[int], list[int]] | None:
    """Numerators and denominators of a row of literal strings, or None where `read_rat` must decide."""
    try:
        if _ROW.fullmatch(_SEP.join(values)) is None:
            return None
        nums, _, dens = zip(*map(str.partition, values, repeat("/")))
        # Each distinct denominator string is read once; an integer literal has "".
        den_of = {q: int(q or 1) for q in set(dens)}
        if 0 in den_of.values():
            return None
        return list(map(int, nums)), list(map(den_of.__getitem__, dens))
    except (TypeError, ValueError):
        # A non-string entry, or a literal int() refuses: past its digit limit, or holding _SEP.
        return None


def read_row(values: list) -> IntRow:
    """The literals `values` as one integer row over the lcm of their denominators, reduced."""
    parts = _split_row(values)
    if parts is None:
        pairs = [read_rat(v) for v in values]
        parts = [p for p, _ in pairs], [q for _, q in pairs]
    return reduced_row(*over_lcm(*parts))


def _repeated_literals(rows: list[list]) -> list | None:
    """The distinct entries of `rows`, or None if they are unhashable or more than half the entries.

    Rows that cover a quarter of the entries without repeating one give up
    early too: entries drawn from a pool small enough to fill at most half
    the matrix repeat within a quarter of it all but surely once the matrix
    has a few dozen entries, and where they do not, the rows are read as
    before, at the same cost.
    """
    total, seen, read = sum(map(len, rows)), set(), 0
    try:
        for row in rows:
            seen.update(row)
            read += len(row)
            if 2 * len(seen) > total or (len(seen) == read and 4 * read >= total):
                return None
    except TypeError:
        return None
    return list(seen)


def _shared_den(dens: list[int]) -> int | None:
    """The lcm of `dens`, or None once it has more than `MAX_SHARED_DEN_BITS` bits."""
    D = 1
    for q in set(dens):
        D = math.lcm(D, q)
        if D.bit_length() > MAX_SHARED_DEN_BITS:
            return None
    return D


def largest(row: IntRow) -> int:
    """The largest magnitude of an integer of the row, its denominator included."""
    d, nums = row
    return max(d, max(nums), -min(nums))


def read_rows(rows: list[list]) -> Iterator[tuple[IntRow, int]]:
    """The rows of one matrix as `read_row` reads each of them, yielded one at a time,
    each with a bound on the magnitude of its integers.

    Matrices repeat small literals (a Q^64 one of the spec-tasks benchmark
    holds about 140 distinct literals in 4096 entries), so the distinct
    literals of all rows are split and converted to integers once, in one
    `_split_row` pass.  Each becomes its numerator over D, the lcm of all
    their denominators, and each row is then one lookup per entry and one
    gcd that reduces it: a reduced row is unique, so it is the row
    `read_row` gives.  Where more than half the entries are distinct, the
    lookups would cost more than the repeats save, and where D has more than
    `MAX_SHARED_DEN_BITS` bits, the numerators over it would: each row is
    then read by `read_row`, and a matrix without repeats costs about what
    it did row by row.  Rows are read by `read_row` too where the distinct
    literals cannot be read in one pass (an unhashable entry, or anything
    `_split_row` leaves to `read_rat`), so the first bad literal in row order
    raises its usual error.  Only strings take the lookup path: `_split_row`
    refuses any other entry, which matters because 1, True and 1.0 are one
    key of a set.  The rows are yielded lazily, so a caller can refuse a row
    before the next one is built.

    The bound is each row's `largest` integer, except over one shared D: a
    reduced row there divides D and its numerators over D by one gcd, so the
    largest of D and every numerator over D bounds all rows at once.
    """
    distinct = _repeated_literals(rows)
    parts = None if distinct is None else _split_row(distinct)
    D = None if parts is None else _shared_den(parts[1])
    if D is None:
        for row in map(read_row, rows):
            yield row, largest(row)
        return
    over_D = {lit: p * (D // q) for lit, p, q in zip(distinct, *parts)}
    bound = max(D, *map(abs, over_D.values()))
    for row in rows:
        yield reduced_row(D, list(map(over_D.__getitem__, row))), bound
