"""Exact rational scalars.

Every quantity in the library is a `fractions.Fraction`: normalized
(positive denominator, gcd 1) and exact under all arithmetic.  Floats are
rejected at the boundary so no binary rounding can sneak in.

A rational literal is a JSON integer (not a boolean) or a string of the
grammar `[+-]?[0-9]+(/[0-9]+)?` with a nonzero denominator: ASCII digits
only, no spaces, underscores, decimal points or exponents.  `read_rat`
reads one literal into integers; `as_rat` builds the `Fraction`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidElement

_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def read_rat(value) -> tuple[int, int]:
    """The literal `value` as integers (p, q) with q > 0, not necessarily in lowest terms."""
    if isinstance(value, str):
        match = _LITERAL.fullmatch(value)
        if match is None:
            raise InvalidElement(f"cannot parse rational literal {value!r}; expected p or p/q in ASCII digits")
        num, den = match.groups()
        try:
            p, q = int(num), 1 if den is None else int(den)
        except ValueError as exc:
            # int() refuses digit strings beyond the interpreter's length limit.
            raise InvalidElement(f"rational literal too long ({len(value)} characters)") from exc
        if q == 0:
            raise InvalidElement(f"zero denominator in rational literal {value!r}")
        return p, q
    if isinstance(value, bool):
        raise InvalidElement("booleans are not rational scalars")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise InvalidElement(f"floats are not accepted (got {value!r}); pass 'p/q' strings")
    raise InvalidElement(f"cannot interpret {value!r} as a rational scalar")


def as_rat(value) -> Fraction:
    """Coerce a Fraction or a rational literal (see `read_rat`) to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*read_rat(value))
