"""The sparse radius function: far product coordinates, and the form against a dense reference.

A product neighborhood's radius function pins only the coordinates it
constrains, so every decision about it costs the same whatever their
indices: each call below, at coordinate 10^9, must finish well inside a
second.  The property tests build bound functions from a dense description
(a value per index up to a little past the last pin, then the tail) and check
`CoordBounds` against formulas over that description.
"""

import time
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from latring import (
    INF,
    CoordBounds,
    EvSeq,
    ImageSet,
    NbhdSet,
    Neighborhood,
    SeqHom,
    SolidHull,
    Space,
    TopologyId,
    coordinate_bounds,
    group_bound_multiplier,
    set_contains,
)
from latring.homspaces import vw_box
from latring.topology import element_bounds, refuting_nbhd

FAR = 10**9
PRODUCT = Space.evseq(TopologyId.EVSEQ_PRODUCT)


def _quick(f, *args):
    start = time.perf_counter()
    out = f(*args)
    assert time.perf_counter() - start < 1.0
    return out


# ---------------------------------------------------------------------------
# A product coordinate at 10^9.

U = Neighborhood.product({FAR, 3}, 1)


def test_far_membership():
    assert _quick(U.member, EvSeq.of(5, 5, 5, 1, tail=F(1, 2)))
    assert not _quick(U.member, EvSeq.of(0, 0, 0, 1, tail=2))   # escapes at FAR
    assert not _quick(U.member, EvSeq.of(0, 0, 0, 2, tail=0))   # escapes at 3


def test_far_coordinate_bounds():
    b = _quick(coordinate_bounds, NbhdSet(PRODUCT, U))
    assert (b.at(3), b.at(FAR), b.at(FAR - 1), b.at(FAR + 1)) == (1, 1, INF, INF)
    assert b.span() == FAR + 1


def test_far_propagate_bounds():
    T = SeqHom.diagonal(EvSeq.of(2, tail=F(1, 2)))
    img = _quick(T.propagate_bounds, coordinate_bounds(NbhdSet(PRODUCT, U)))
    assert (img.at(0), img.at(3), img.at(FAR), img.at(FAR - 1)) == (INF, F(1, 2), F(1, 2), INF)


def test_far_group_bound_multiplier():
    S = SolidHull(PRODUCT, (EvSeq.of(9, 9, 9, 3, tail=5),))
    assert _quick(group_bound_multiplier, S, U) == 5
    assert _quick(group_bound_multiplier, SolidHull(PRODUCT, (EvSeq.of(9, 9, 9, 3, tail=0),)), U) == 3


def test_far_diagonal_image_membership():
    # The pull-back walks the explicit heads of x and the coefficients, not the base's pins.
    far = NbhdSet(PRODUCT, Neighborhood.product({FAR}, 1))
    S = ImageSet(PRODUCT, SeqHom.diagonal(EvSeq.of(2, 0, tail=3)), far)
    assert _quick(set_contains, S, EvSeq.of(7, 0, tail=3))       # preimage tail 1 fits at FAR
    assert not _quick(set_contains, S, EvSeq.of(7, 0, tail=6))   # preimage tail 2 escapes at FAR


def test_far_vw_box():
    V, W = Neighborhood.product({3, FAR}, 2), Neighborhood.product({FAR, 7}, 3)
    box = _quick(vw_box, V, W)
    assert box == Neighborhood.product({FAR}, 6)
    assert _quick(box.member, EvSeq.constant(6)) and not _quick(box.member, EvSeq.constant(7))


def test_far_refuting_nbhd():
    finite = CoordBounds(((FAR, F(3)),), F(0))
    assert _quick(refuting_nbhd, finite, TopologyId.EVSEQ_PRODUCT) == Neighborhood.product({FAR}, F(3, 2))
    unbounded = CoordBounds(((FAR, INF),), F(0))
    assert _quick(refuting_nbhd, unbounded, TopologyId.EVSEQ_PRODUCT) == Neighborhood.product({FAR}, 1)
    assert _quick(refuting_nbhd, finite, TopologyId.EVSEQ_SUPNORM) == Neighborhood.sup_ball(F(3, 2))


# ---------------------------------------------------------------------------
# The sparse form against a dense reference.

# Few values, so two drawn functions often agree; INF among them.
values = st.sampled_from([F(0), F(1), F(1, 2), F(3), INF])
# Indices near 0 and a few far past them.
indices = st.one_of(st.integers(0, 5), st.integers(40, 44))


@st.composite
def dense_functions(draw):
    """(values by index, tail, length): the tail bounds every index at or past `length`."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return {i: draw(values) for i in range(n)}, None, n
    pinned = draw(st.dictionaries(indices, values, max_size=5))
    return pinned, draw(values), 46


def _sparse(f) -> CoordBounds:
    pinned, tail, _ = f
    if tail is None:
        return CoordBounds.finite_dim([pinned[i] for i in sorted(pinned)])
    return CoordBounds(sorted(pinned.items()), tail)


def _at(f, i):
    pinned, tail, _ = f
    return pinned.get(i, tail)


def _le(a, b) -> bool:
    return b is INF or (a is not INF and a <= b)


def _mul(a, b):
    if a == 0 or b == 0:
        return F(0)
    return INF if INF in (a, b) else a * b


def _every(f):
    """The value at every index below the length, then the tail when there is one."""
    pinned, tail, n = f
    return [_at(f, i) for i in range(n)] + ([] if tail is None else [tail])


def _same_carrier(f, g) -> bool:
    return (f[1] is None) == (g[1] is None) and f[2] == g[2]


@settings(max_examples=400)
@given(dense_functions(), dense_functions())
def test_equal_records_are_equal_functions(f, g):
    a, b = _sparse(f), _sparse(g)
    assert all(a.at(i) == _at(f, i) for i in range(f[2]))
    if _same_carrier(f, g):
        assert (a == b) == (_every(f) == _every(g))
        if a == b:
            assert hash(a) == hash(b)


@settings(max_examples=400)
@given(dense_functions(), dense_functions())
def test_sparse_decisions_agree_with_dense_ones(f, g):
    a, b = _sparse(f), _sparse(g)
    every = _every(f)
    assert a.overall_sup() == (INF if INF in every else max(every))
    assert a.first_infinite_index() == next((i for i, v in enumerate(every) if v is INF), None)
    if _same_carrier(f, g):
        assert a.within(b) == all(_le(x, y) for x, y in zip(every, _every(g)))
        product = a.times(b)
        assert [product.at(i) for i in range(f[2])] + [product.tail] * (f[1] is not None) == [
            _mul(x, y) for x, y in zip(every, _every(g))
        ]


def test_pins_equal_to_the_tail_are_dropped():
    assert CoordBounds(((0, F(1)), (4, INF), (9, F(2))), INF) == CoordBounds(((0, F(1)), (9, F(2))), INF)
    assert CoordBounds.sequence((F(0), F(0)), F(0)) == CoordBounds((), F(0))
    assert element_bounds(EvSeq.of(-1, 2, 1, tail=-1)).pins == ((1, F(2)),)


small_rats = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@given(st.lists(small_rats, max_size=10), small_rats)
def test_element_bounds_match_the_canonical_form_of_each_modulus(prefix, tail):
    # Entries of equal modulus and either sign, so many pins equal the tail and are dropped.
    x = EvSeq(prefix, tail)
    assert element_bounds(x) == CoordBounds.sequence([abs(x.at(i)) for i in range(len(x.prefix))], abs(tail))
