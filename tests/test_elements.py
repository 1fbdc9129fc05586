"""Element-level lattice operations and their exact identities."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latring import EvSeq, FinVec, InvalidElement, Space, ZInt
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
    assert EvSeq(s.prefix, s.tail) == s  # rebuilt through the Fraction views


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


# ---------------------------------------------------------------------------
# The integer form against entrywise Fraction formulas.
#
# Every element is built either from Fractions through the public constructor
# or from an integer row through `from_int_row`, with the row left unreduced
# (numerators and denominator times a common factor) and, for sequences, with
# copies of the tail left at the end of the prefix.  Each operation must give
# the element that the Fraction formula gives, coordinate by coordinate, and
# one integer form whichever path built it.

int_rats = st.builds(F, st.one_of(st.integers(-3, 3), st.integers(-40, 40)), st.sampled_from([1, 2, 3, 5, 7, 8]))


@st.composite
def built(draw, values, tail=None):
    """The element with these coordinates (a sequence when `tail` is given), by either path."""
    if tail is None:
        if draw(st.booleans()):
            return FinVec(tuple(values))
        row = list(values)
    else:
        # Prefix entries equal to the tail, left for the canonicalising step to trim.
        padded = list(values) + [tail] * draw(st.integers(0, 2))
        if draw(st.booleans()):
            return EvSeq(tuple(padded), tail)
        row = padded + [tail]
    d = math.lcm(*(q.denominator for q in row))
    factor = draw(st.sampled_from([1, 1, 2, 6, 35]))
    nums = [q.numerator * (d // q.denominator) * factor for q in row]
    cls = FinVec if tail is None else EvSeq
    return cls.from_int_row(d * factor, nums)


@st.composite
def element_pairs(draw):
    """(x, y, xs, ys): two elements and their coordinates, the tail last for sequences."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        xs = draw(st.lists(int_rats, min_size=n, max_size=n))
        ys = draw(st.lists(int_rats, min_size=n, max_size=n))
        return draw(built(xs)), draw(built(ys)), xs, ys
    xp, yp = draw(st.lists(int_rats, max_size=6)), draw(st.lists(int_rats, max_size=6))
    xt, yt = draw(int_rats), draw(int_rats)
    return draw(built(xp, xt)), draw(built(yp, yt)), xp + [xt], yp + [yt]


def _pad(xs, length):
    """A sequence's coordinates, tail last, repeated out to `length` indices."""
    return xs + [xs[-1]] * (length - len(xs))


def _fraction_element(like, values):
    """The reference: the element of like's carrier with these coordinates, built from Fractions."""
    if isinstance(like, FinVec):
        return FinVec(tuple(values))
    return EvSeq(tuple(values[:-1]), values[-1])


def _same(result, like, values):
    """result is the element the Fraction formula gives, in its one integer form."""
    ref = _fraction_element(like, values)
    assert result == ref and hash(result) == hash(ref)
    assert result.int_row == ref.int_row and repr(result) == repr(ref)
    d, nums = result.int_row
    assert d > 0 and math.gcd(d, *nums) == 1
    if isinstance(result, EvSeq):
        assert len(nums) == 1 or nums[-2] != nums[-1]
        n = len(values) + 1
        assert [result.at(i) for i in range(n)] == _pad(values, n)
    else:
        assert list(result.entries) == values


scales = st.one_of(st.just(0), st.just(-1), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@given(element_pairs(), scales)
def test_element_ops_match_fraction_formulas(case, q):
    x, y, xs, ys = case
    if isinstance(x, EvSeq):
        n = max(len(xs), len(ys))
        xs, ys = _pad(xs, n), _pad(ys, n)
    results = {
        "add": (x + y, [a + b for a, b in zip(xs, ys)]),
        "sub": (x - y, [a - b for a, b in zip(xs, ys)]),
        "mul": (x * y, [a * b for a, b in zip(xs, ys)]),
        "join": (x.join(y), [max(a, b) for a, b in zip(xs, ys)]),
        "meet": (x.meet(y), [min(a, b) for a, b in zip(xs, ys)]),
        "neg": (-x, [-a for a in xs]),
        "scale": (x.scale(q), [F(q) * a for a in xs]),
        "abs": (abs(x), [abs(a) for a in xs]),
        "pos_part": (x.pos_part(), [max(a, F(0)) for a in xs]),
        "neg_part": (x.neg_part(), [max(-a, F(0)) for a in xs]),
    }
    for result, values in results.values():
        _same(result, x, values)
    le = all(a <= b for a, b in zip(xs, ys))
    ge = all(a >= b for a, b in zip(xs, ys))
    assert (x <= y) == le and (x >= y) == ge and (y <= x) == ge
    assert (x == y) == (xs == ys) == (le and ge)
    assert (x < y) == (le and xs != ys) and (x > y) == (ge and xs != ys)
    assert x.is_zero() == all(a == 0 for a in xs)
    _same(x, x, xs)


@given(element_pairs())
def test_both_paths_give_one_element(case):
    x, _, xs, _ = case
    ref = _fraction_element(x, xs)
    assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref)
    assert x.int_row == ref.int_row
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and hash(clone) == hash(x) and clone.int_row == x.int_row
    names = ("entries", "_d", "extra") if isinstance(x, FinVec) else ("prefix", "tail", "_d", "extra")
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
    with pytest.raises(FrozenInstanceError):
        del x.int_row
    assert x == ref


def test_integer_form_examples():
    # 2/4 and 4/8 reduce to one half; the prefix entry equal to the tail is trimmed.
    s = EvSeq.from_int_row(8, (4, 6, 2, 2, 2))
    assert s.int_row == (4, (2, 3, 1)) and s == EvSeq.of(F(1, 2), F(3, 4), tail=F(1, 4))
    assert EvSeq.from_int_row(6, (3, 3)) == EvSeq.constant(F(1, 2))
    assert FinVec.from_int_row(10, [5, 0, -15]).int_row == (2, (1, 0, -3))
    assert FinVec.of(F(1, 3), F(1, 6)).int_row == (6, (2, 1))
    assert FinVec.of(1, 2).scale(0).int_row == (1, (0, 0))
    assert EvSeq.of(1, tail=2).scale(F(-1, 2)).int_row == (2, (-1, -2))
    assert repr(EvSeq.from_int_row(2, (1, 0))) == "EvSeq([1/2], tail=0)"
    assert repr(FinVec.from_int_row(4, (2, -8))) == "FinVec(1/2, -2)"
    with pytest.raises(InvalidElement):
        FinVec.from_int_row(1, ())


def test_an_integer_of_z_has_the_row_constructors_at_one_coordinate():
    assert ZInt.of(3) == ZInt(3) and type(ZInt.of(3)) is ZInt and type(FinVec.of(3)) is FinVec
    assert ZInt.zero(1) == ZInt(0) and ZInt.constant(1, 4) == ZInt(4)
    for build in (lambda: ZInt.of(1, 2), lambda: ZInt.of(F(1, 2)), lambda: ZInt.zero(2), lambda: ZInt.constant(2, 4)):
        with pytest.raises(InvalidElement, match="expected an integer"):
            build()
