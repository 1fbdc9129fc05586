"""Exact rational scalars.

Every quantity in the library is a `fractions.Fraction`: normalized
(positive denominator, gcd 1) and exact under all arithmetic.  Floats are
rejected at the boundary so no binary rounding can sneak in.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidElement


def as_rat(value) -> Fraction:
    """Coerce an int, "p/q" string, or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidElement("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidElement(f"cannot parse rational literal {value!r}") from exc
    if isinstance(value, float):
        raise InvalidElement(f"floats are not accepted (got {value!r}); pass 'p/q' strings")
    raise InvalidElement(f"cannot interpret {value!r} as a rational scalar")
