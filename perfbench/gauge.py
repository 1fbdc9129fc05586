"""A gauge of the host's speed, independent of latring.

The host's speed swings by up to 2x from one second to the next with other
tenants' load, and process CPU time swings with it.  A fixed pure-Python
Fraction loop, the kind of arithmetic latring spends its time in, runs
beside every timed piece of work; a time is reported as it would read on a
host where the gauge takes NOMINAL_S, i.e. scaled by NOMINAL_S over the
gauge's time measured around it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.006
TERMS = 2400


def gauge_seconds() -> float:
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, TERMS):
        s += Fraction(i % 7 + 1, i % 11 + 1)
    return perf_counter() - t0


def scaled(seconds: float, gauge_s: float) -> float:
    """`seconds` as it would read on a host where the gauge takes NOMINAL_S."""
    return seconds * NOMINAL_S / gauge_s
