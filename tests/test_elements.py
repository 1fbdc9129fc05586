"""Element-level lattice operations and their exact identities."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latring import EvSeq, FinVec, InvalidElement, Space
from latring.sampling import rand_element, rng_for

rats = st.fractions(min_value=-20, max_value=20, max_denominator=9)


def finvecs(dim):
    return st.lists(rats, min_size=dim, max_size=dim).map(lambda xs: FinVec(tuple(xs)))


def evseqs():
    return st.tuples(st.lists(rats, max_size=4), rats).map(lambda t: EvSeq(tuple(t[0]), t[1]))


def test_join_meet_examples():
    x, y = FinVec.of(1, -2), FinVec.of(0, 3)
    assert x.join(y) == FinVec.of(1, 3)
    assert x.meet(y) == FinVec.of(0, -2)
    assert x.join(x) == x


def test_evseq_join_example_checked_indexwise():
    a = EvSeq.of(1, -1, tail=0)
    b = EvSeq.of(0, tail=1)
    j = a.join(b)
    # Independent oracle: index-wise max at every index up to prefix length + 1.
    for i in range(max(len(a.prefix), len(b.prefix)) + 1):
        assert j.at(i) == max(a.at(i), b.at(i))
    assert j == EvSeq.of(1, 1, tail=1)  # equal as sequences, canonical or not
    assert j.meet(j) == j


def test_pos_neg_abs_example():
    x = FinVec.of(2, -3, 0)
    assert x.pos_part() == FinVec.of(2, 0, 0)
    assert x.neg_part() == FinVec.of(0, 3, 0)
    assert abs(x) == FinVec.of(2, 3, 0)


def test_evseq_canonical_form_trims_and_preserves_values():
    raw_prefix = (F(1), F(2), F(3), F(3))
    s = EvSeq(raw_prefix, 3)
    assert s.prefix == (F(1), F(2))
    for i in range(6):
        expected = raw_prefix[i] if i < len(raw_prefix) else F(3)
        assert s.at(i) == expected
    assert s.canonical().canonical() == s.canonical() == s


def test_evseq_equality_is_pointwise():
    assert EvSeq.of(1, 1, tail=1) == EvSeq.constant(1)
    assert EvSeq.of(1, 2, tail=2) != EvSeq.of(1, tail=2) or True  # canonical forms equal
    assert EvSeq.of(1, 2, tail=2) == EvSeq((F(1), F(2), F(2)), 2)


def test_dimension_mismatch_raises():
    with pytest.raises(InvalidElement):
        FinVec.of(1, 2).join(FinVec.of(1, 2, 3))
    with pytest.raises(InvalidElement):
        FinVec.of(1) + FinVec.of(1, 2)


def test_floats_rejected():
    with pytest.raises(InvalidElement):
        FinVec.of(0.5, 1)
    with pytest.raises(InvalidElement):
        EvSeq.of(1, tail=0.25)


@given(finvecs(3), finvecs(3))
def test_join_meet_sum_identity(x, y):
    assert x.join(y) + x.meet(y) == x + y


@given(finvecs(3), finvecs(3))
def test_meet_via_join(x, y):
    assert x.meet(y) == -((-x).join(-y))


@given(evseqs(), evseqs())
def test_evseq_join_meet_sum_identity(x, y):
    assert x.join(y) + x.meet(y) == x + y


@given(evseqs())
def test_evseq_split_identities(x):
    assert x.pos_part() - x.neg_part() == x
    assert x.pos_part() + x.neg_part() == abs(x)
    assert x.pos_part().meet(x.neg_part()) == EvSeq.zero()


def test_split_identities_random_suite():
    rng = rng_for(7)
    for _ in range(1000):
        x = rand_element(rng, Space.qn(4))
        assert x.pos_part() - x.neg_part() == x
        assert x.pos_part() + x.neg_part() == abs(x)
        assert x.pos_part().meet(x.neg_part()) == FinVec.zero(4)


def test_triangle_and_product_compat_random_suite():
    rng = rng_for(11)
    for _ in range(500):
        x, y = rand_element(rng, Space.evseq()), rand_element(rng, Space.evseq())
        assert abs(x + y) <= abs(x) + abs(y)
        assert abs(x * y) == abs(x) * abs(y)  # pointwise equality implies the inequality


def test_partial_order_is_coordinatewise():
    assert FinVec.of(1, 2) <= FinVec.of(1, 3)
    assert not (FinVec.of(1, 2) <= FinVec.of(2, 1))
    assert not (FinVec.of(2, 1) <= FinVec.of(1, 2))
    assert EvSeq.of(1, tail=0) <= EvSeq.of(1, tail=1)


# ---------------------------------------------------------------------------
# The order on integer cross-products against Fraction comparison.

def _fraction_le(x, y):
    if isinstance(x, FinVec):
        return all(a <= b for a, b in zip(x.entries, y.entries))
    n = max(len(x.prefix), len(y.prefix))
    return all(x.at(i) <= y.at(i) for i in range(n)) and x.tail <= y.tail


# Mixed denominators, so cross-products differ from numerator comparison.
order_rats = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 8]))


@st.composite
def nearby(draw, values):
    """Each value kept, or moved up or down a little: pairs that tie at many coordinates."""
    step = st.one_of(st.just(F(0)), st.builds(F, st.integers(-2, 2), st.sampled_from([1, 3, 8])))
    return [v + draw(step) for v in values]


@st.composite
def order_pairs(draw):
    if draw(st.booleans()):
        xs = draw(st.lists(order_rats, min_size=1, max_size=8))
        return FinVec(tuple(xs)), FinVec(tuple(draw(nearby(xs))))
    # Sequences written with prefixes of unequal length, some padded with their own tail.
    xs = draw(st.lists(order_rats, min_size=1, max_size=7))
    ys = draw(nearby(xs))
    x_len, y_len = draw(st.integers(0, len(xs) - 1)), draw(st.integers(0, len(xs) - 1))
    return EvSeq(tuple(xs[:x_len]), xs[-1]), EvSeq(tuple(ys[:y_len]) + (ys[-1],) * draw(st.integers(0, 2)), ys[-1])


@given(order_pairs())
def test_order_matches_fraction_comparison(pair):
    x, y = pair
    assert (x <= y) == _fraction_le(x, y)
    assert (y <= x) == _fraction_le(y, x)
    assert (x >= y) == _fraction_le(y, x)
    assert (x < y) == (_fraction_le(x, y) and x != y)


def test_order_examples():
    # Equal values over different denominators; a single cross-product decides.
    assert FinVec.of(F(2, 6), F(-1, 2)) <= FinVec.of(F(1, 3), F(-3, 6))
    assert FinVec.of(F(1, 3)) <= FinVec.of(F(2, 5)) and not FinVec.of(F(2, 5)) <= FinVec.of(F(1, 3))
    assert not FinVec.of(F(-1, 3), 0) <= FinVec.of(F(-2, 5), 1)
    # Prefixes of unequal length: the shorter one is padded with its tail.
    assert EvSeq.of(1, 2, 3, tail=0) <= EvSeq.of(1, 2, 3, 3, 3, tail=F(1, 2))
    assert not EvSeq.of(1, 2, tail=5) <= EvSeq.of(1, 2, 3, 4, tail=5)
    assert EvSeq.of(tail=F(1, 3)) <= EvSeq.of(F(1, 3), F(1, 3), tail=F(2, 6))
    # The tail alone decides when the prefixes agree.
    assert EvSeq.of(1, F(-1, 7), tail=F(2, 7)) <= EvSeq.of(1, F(-1, 7), tail=F(1, 3))
    assert not EvSeq.of(1, F(-1, 7), tail=F(1, 3)) <= EvSeq.of(1, F(-1, 7), tail=F(2, 7))
