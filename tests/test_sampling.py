"""The interval sampler against the Fraction formula it replaces.

`rand_in_interval` builds the point lo + k (hi - lo) / 24 from integer
numerators and denominators.  It must give the same value as the Fraction
formula and leave the generator in the same state, so every seeded report
that samples an interval stays the same.
"""

import random
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from latring import EvSeq, FinVec, ZInt
from latring.sampling import rand_between, rand_in_interval


def _fraction_point(rng, lo, hi):
    t = F(rng.randint(0, 24), 24)
    return lo + t * (hi - lo)


def _fraction_between(rng, lo, hi, min_head=0):
    """Coordinate by coordinate with `_fraction_point`, tail last; integers uniformly."""
    if isinstance(lo, ZInt):
        return ZInt(rng.randint(int(lo), int(hi)))
    if isinstance(lo, FinVec):
        return FinVec(tuple(_fraction_point(rng, a, b) for a, b in zip(lo, hi)))
    n = max(min_head, len(lo.prefix), len(hi.prefix))
    head = tuple(_fraction_point(rng, lo.at(i), hi.at(i)) for i in range(n))
    return EvSeq(head, _fraction_point(rng, lo.tail, hi.tail))


# Denominators up to 840, the lcm of 3, 5, 7 and 8, with those four weighted in.
dens = st.one_of(st.sampled_from([1, 3, 5, 7, 8, 840]), st.integers(1, 840))
rats = st.builds(F, st.integers(-60, 60), dens)


@st.composite
def intervals(draw):
    """(lo, hi) with lo <= hi: negative, straddling zero, positive, or of width zero."""
    a, b = draw(rats), draw(rats)
    if draw(st.integers(0, 4)) == 0:
        b = a
    return min(a, b), max(a, b)


@given(st.integers(0, 2**32), rats, rats)
def test_point_matches_fraction_formula(seed, lo, hi):
    # Any order of the ends: the formula is the same affine point either way.
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert rand_in_interval(rng, lo, hi) == _fraction_point(ref, lo, hi)
    assert rng.getstate() == ref.getstate()


@st.composite
def element_intervals(draw):
    """[lo, hi] on Z, on Q^n (n <= 8) or on sequences, with a minimum head for sequences."""
    kind = draw(st.sampled_from(["z", "qn", "seq"]))
    if kind == "z":
        a, b = sorted(draw(st.lists(st.integers(-50, 50), min_size=2, max_size=2)))
        return ZInt(a), ZInt(b), 0
    if kind == "qn":
        pairs = draw(st.lists(intervals(), min_size=1, max_size=8))
        return FinVec(tuple(a for a, _ in pairs)), FinVec(tuple(b for _, b in pairs)), 0
    pairs = draw(st.lists(intervals(), min_size=1, max_size=7))
    (lo_tail, hi_tail), head = pairs[-1], pairs[:-1]
    # The two ends may have prefixes of unequal length.
    lo_len, hi_len = draw(st.integers(0, len(head))), draw(st.integers(0, len(head)))
    lo = EvSeq(tuple(a for a, _ in head[:lo_len]) + (lo_tail,) * (len(head) - lo_len), lo_tail)
    hi = EvSeq(tuple(b for _, b in head[:hi_len]) + (hi_tail,) * (len(head) - hi_len), hi_tail)
    return lo.meet(hi), lo.join(hi), draw(st.integers(0, 9))


@given(st.integers(0, 2**32), element_intervals())
def test_between_matches_fraction_formula(seed, case):
    lo, hi, min_head = case
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        y = rand_between(rng, lo, hi, min_head=min_head)
        assert y == _fraction_between(ref, lo, hi, min_head)
        assert lo <= y <= hi
    assert rng.getstate() == ref.getstate()


def test_point_examples():
    k = random.Random(0).randint(0, 24)
    rng = random.Random(0)
    assert rand_in_interval(rng, F(-1, 3), F(5, 7)) == F(-1, 3) + F(k, 24) * (F(5, 7) + F(1, 3))
    # Width zero gives the one point; the ends are reachable and the result is normalised.
    assert rand_in_interval(random.Random(1), F(-7, 840), F(-7, 840)) == F(-1, 120)
    points = {rand_in_interval(rng, F(-1), F(1)) for _ in range(2000)}
    assert points == {F(k - 12, 12) for k in range(25)}


def test_min_head_draws_each_sequence_coordinate():
    p = EvSeq.constant(1)
    y = rand_between(random.Random(0), -p, p)
    assert y.prefix == ()
    y = rand_between(random.Random(0), -p, p, min_head=4)
    assert len({y.at(i) for i in range(5)}) > 1
    # Vectors and integers have no tail to pad: the minimum head leaves their draws alone.
    x = FinVec.of(1, 2)
    assert rand_between(random.Random(3), -x, x, min_head=5) == rand_between(random.Random(3), -x, x)
    z = ZInt(4)
    assert rand_between(random.Random(3), -z, z, min_head=5) == rand_between(random.Random(3), -z, z)
