"""Neighborhoods, symbolic sets, bound functions, and the boundedness deciders."""

from fractions import Fraction as F

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latring import (
    EvSeq,
    FinVec,
    FiniteSet,
    ImageSet,
    Interval,
    InvalidElement,
    MatrixHom,
    Multiplication,
    NbhdSet,
    Neighborhood,
    NotBounded,
    SeqHom,
    Space,
    SolidHull,
    TopologyId,
    ZInt,
    coordinate_bounds,
    fatou_check,
    group_bound_multiplier,
    hull_bounded_preservation,
    is_order_closed,
    is_solid,
    join,
    meet,
    sample_member,
    set_contains,
    set_group_bounded,
    set_ring_bounded,
    solid_hull,
)
from latring.extended import INF, CoordBounds, ext_le, is_inf
from latring.sampling import rand_element, rng_for
from latring.topology import non_solid_witness, refuting_nbhd

PROD = Space.evseq(TopologyId.EVSEQ_PRODUCT)
SUP = Space.evseq(TopologyId.EVSEQ_SUPNORM)
Q2 = Space.qn(2)
ZD = Space.z_discrete()


def test_refuting_nbhd_on_finite_bounds():
    # Product base: with no free coordinate, halve the first nonzero bound.
    b = CoordBounds.sequence((F(0), F(3), F(5)), F(0))
    U = refuting_nbhd(b, TopologyId.EVSEQ_PRODUCT)
    assert U == Neighborhood.product({1}, F(3, 2)) and not b.within(U.bounds)
    # Q^n: halve each nonzero finite bound, radius 1 on a zero or INF coordinate.
    b = CoordBounds.finite_dim((F(0), INF, F(4)))
    U = refuting_nbhd(b, TopologyId.QN_BOX)
    assert U == Neighborhood.box((1, 1, 2)) and not b.within(U.bounds)


def test_nbhd_membership_examples():
    x = EvSeq.of(1, -1, tail=5)
    assert Neighborhood.product({0, 1}, 1).member(x)       # tail unconstrained
    assert not Neighborhood.sup_ball(1).member(x)          # |5| > 1
    assert Neighborhood.box((1, 2)).member(FinVec.of(1, -2))  # closed box boundary


def test_solid_hull_membership():
    hull = solid_hull(Q2, [FinVec.of(1, -2)])
    assert set_contains(hull, FinVec.of(1, 2))
    assert set_contains(hull, FinVec.of(-1, F(3, 2)))
    assert not set_contains(hull, FinVec.of(2, 0))

    two = solid_hull(Q2, [FinVec.of(1, 0), FinVec.of(0, 1)])
    assert not set_contains(two, FinVec.of(1, 1))  # neither generator dominates
    assert set_contains(two, FinVec.of(0, -1))


def test_solid_hull_idempotent_membership():
    rng = rng_for(5)
    hull = solid_hull(Q2, [FinVec.of(2, -1), FinVec.of(0, 3)])
    hull2 = solid_hull(Q2, list(hull.generators))
    for _ in range(200):
        x = rand_element(rng, Q2)
        assert set_contains(hull, x) == set_contains(hull2, x)
    assert coordinate_bounds(hull) == coordinate_bounds(hull2)


def test_coordinate_bounds_examples():
    b = coordinate_bounds(NbhdSet(PROD, Neighborhood.product({0}, 2)))
    assert b.at(0) == 2 and is_inf(b.at(1)) and is_inf(b.tail)

    b = coordinate_bounds(SolidHull(Q2, (FinVec.of(1, -2),)))
    assert (b.at(0), b.at(1)) == (1, 2)

    image = ImageSet(
        SUP,
        SeqHom.diagonal(EvSeq.of(3, tail=1)),
        NbhdSet(SUP, Neighborhood.sup_ball(1)),
    )
    b = coordinate_bounds(image)
    assert b.at(0) == 3 and b.tail == 1
    # Cross-check by sampling members of the image.
    rng = rng_for(1)
    for _ in range(100):
        x = sample_member(image, rng)
        for i in range(len(x.prefix) + 1):
            assert ext_le(abs(x.at(i)), b.at(i))


def test_image_membership_with_free_coordinates():
    # A zero coefficient forces the image coordinate to 0 but leaves the
    # preimage coordinate free, which must be filled from the base's range.
    base = Interval(PROD, EvSeq.of(1, 2, tail=0), EvSeq.of(3, 4, tail=1))
    img = ImageSet(PROD, SeqHom.zero(), base)
    assert set_contains(img, EvSeq.zero())
    assert not set_contains(img, EvSeq.constant(1))

    a = SeqHom.diagonal(EvSeq.of(2, 0, tail=3))
    base2 = Interval(PROD, EvSeq.of(-1, 5, tail=-2), EvSeq.of(1, 6, tail=2))
    img2 = ImageSet(PROD, a, base2)
    assert set_contains(img2, EvSeq.of(2, 0, tail=3))
    assert not set_contains(img2, EvSeq.of(2, 1, tail=3))   # coordinate 1 must be 0
    assert not set_contains(img2, EvSeq.of(4, 0, tail=3))   # preimage escapes the base
    # A free coordinate is filled only from an interval, hull or neighborhood.
    with pytest.raises(InvalidElement, match="no coordinatewise filler"):
        set_contains(ImageSet(PROD, SeqHom.zero(), img2), EvSeq.zero())


@pytest.mark.parametrize(
    "base",
    [NbhdSet(ZD, Neighborhood.discrete_zero()), FiniteSet(ZD, (ZInt(0),)), Interval(ZD, ZInt(-1), ZInt(1))],
    ids=["nbhd", "finite", "interval"],
)
def test_integer_image_of_a_non_unit_matrix(base):
    # 3 pulls back to 3/2 under x -> 2x, which is no integer, so 3 is no member.
    img = ImageSet(ZD, MatrixHom([[2]]), base)
    assert [set_contains(img, ZInt(n)) for n in (3, 4, 0)] == [False, False, True]


def test_image_that_does_not_act_on_its_elements_is_refused():
    q2_box = NbhdSet(Q2, Neighborhood.box((1, 1)))
    mismatched = [
        (ImageSet(Q2, MatrixHom.identity(3), q2_box), FinVec.of(0, 0)),
        (ImageSet(Q2, SeqHom.identity(), q2_box), FinVec.of(0, 0)),
        (ImageSet(PROD, MatrixHom.identity(2), NbhdSet(PROD, Neighborhood.product({0}, 1))), EvSeq.of(0, tail=0)),
    ]
    for S, x in mismatched:
        with pytest.raises(InvalidElement, match="does not act on"):
            set_contains(S, x)


def test_product_neighborhood_refuses_a_negative_index():
    with pytest.raises(InvalidElement, match="product neighborhoods need coordinate indices >= 0"):
        Neighborhood.product({0, -1}, 1)


# Diagonal images on Q^n and on both sequence topologies, over interval, hull
# and neighborhood bases.
_coefficients = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 3), F(-5, 2)])
_values = st.sampled_from([F(0), F(1), F(-2), F(1, 2), F(7, 3)])


@st.composite
def diagonal_images(draw):
    """(D, B, elements): a diagonal homomorphism, a base set, and a strategy for elements of its space."""
    space = draw(st.sampled_from([Space.qn(draw(st.integers(1, 4))), PROD, SUP]))
    if space.dim:
        n = space.dim
        D = MatrixHom([[draw(_coefficients) if i == j else 0 for j in range(n)] for i in range(n)])
        elements = st.lists(_values, min_size=n, max_size=n).map(FinVec)
    else:
        D = SeqHom.diagonal(EvSeq(draw(st.lists(_coefficients, max_size=4)), draw(_coefficients)))
        elements = st.builds(EvSeq, st.lists(_values, max_size=4), _values)
    kind = draw(st.sampled_from(["interval", "hull", "nbhd"]))
    if kind == "interval":
        a, b = draw(elements), draw(elements)
        B = Interval(space, meet(space, a, b), join(space, a, b))
    elif kind == "hull":
        B = SolidHull(space, tuple(draw(st.lists(elements, min_size=1, max_size=3))))
    else:
        radii = st.sampled_from([F(1, 2), F(1), F(3)])
        if space.dim:
            U = Neighborhood.box(draw(st.lists(radii, min_size=space.dim, max_size=space.dim)))
        elif space.topology is TopologyId.EVSEQ_PRODUCT:
            U = Neighborhood.product(draw(st.frozensets(st.integers(0, 6), max_size=3)), draw(radii))
        else:
            U = Neighborhood.sup_ball(draw(radii))
        B = NbhdSet(space, U)
    return D, B, elements


def _diagonal_unit(D):
    """An element that is 1 at the first coordinate where D's coefficient is 0, and 0 elsewhere; None if none is."""
    _, nums = D.diag.int_row
    if 0 not in nums:
        return None
    i = nums.index(0)
    if isinstance(D, MatrixHom):
        return FinVec.from_int_row(1, [int(j == i) for j in range(len(nums))])
    # On a sequence the last entry of the row is the tail: a zero there leaves every later index free.
    return EvSeq.from_int_row(1, [int(j == i) for j in range(len(nums))])


@settings(max_examples=300)
@given(diagonal_images(), st.integers(0, 2**16), st.data())
def test_diagonal_image_membership_pulls_back(image, seed, data):
    D, B, elements = image
    S = ImageSet(B.space, D, B)
    y = sample_member(B, rng_for(seed))
    assert set_contains(S, D.apply(y))
    unit = _diagonal_unit(D)
    if unit is not None:
        assert not set_contains(S, D.apply(y) + unit)
    if isinstance(D, MatrixHom) and 0 not in D.diag.int_row[1]:
        inverse = MatrixHom([[1 / c if i == j else 0 for j, c in enumerate(D.diag.entries)] for i in range(D.n)])
        for x in (D.apply(y), data.draw(elements), D.apply(data.draw(elements))):
            assert set_contains(S, x) == set_contains(B, inverse.apply(x))


def test_ring_bounded_examples():
    zero_mult = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)
    v = set_ring_bounded(NbhdSet(zero_mult, Neighborhood.product({0}, 1)))
    assert v.holds and v.vacuous

    v = set_ring_bounded(NbhdSet(PROD, Neighborhood.product({0}, 1)))
    assert not v.holds
    assert v.refuting == Neighborhood.product({1}, 1)

    x_bar = EvSeq.of(4, tail=2)
    v = set_ring_bounded(Interval(PROD, -x_bar, x_bar))
    assert v.holds and not v.vacuous


def test_group_bounded_examples():
    S = FiniteSet(Q2, (FinVec.of(10, 0),))
    assert group_bound_multiplier(S, Neighborhood.box((1, 1))) == 10
    assert set_group_bounded(S).holds

    v = set_group_bounded(NbhdSet(PROD, Neighborhood.product({0}, 1)))
    assert not v.holds and v.refuting == Neighborhood.product({1}, 1)

    # Discrete integers: n * {0} = {0}, so nonzero singletons are unbounded.
    five = FiniteSet(ZD, (ZInt(5),))
    v = set_group_bounded(five)
    assert not v.holds and v.refuting == Neighborhood.discrete_zero()
    assert group_bound_multiplier(five, Neighborhood.discrete_zero()) is None
    assert set_group_bounded(FiniteSet(ZD, (ZInt(0),))).holds
    # ... while ring-boundedness on discrete Z is automatic (V = {0} works).
    assert set_ring_bounded(five).holds


def test_group_decider_ignores_multiplication():
    zero_mult = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)
    U = Neighborhood.product({0}, 1)
    for space in (PROD, zero_mult):
        v = set_group_bounded(NbhdSet(space, U))
        assert not v.holds and v.refuting == Neighborhood.product({1}, 1)
    # ... while the ring decider trivializes exactly under the zero product.
    assert set_ring_bounded(NbhdSet(zero_mult, U)).vacuous
    assert not set_ring_bounded(NbhdSet(PROD, U)).holds


def test_solidness_structural_verdicts():
    assert is_solid(NbhdSet(PROD, Neighborhood.product({0, 1}, 1)))
    assert is_solid(SolidHull(Q2, (FinVec.of(1, 2),)))
    assert is_solid(Interval(Q2, FinVec.of(-1, -1), FinVec.of(1, 1)))
    assert not is_solid(FiniteSet(Q2, (FinVec.of(1, 1),)))
    assert not is_solid(Interval(Q2, FinVec.zero(2), FinVec.of(1, 1)))
    assert is_solid(FiniteSet(Q2, (FinVec.zero(2),)))


def test_non_solid_witnesses_check_out():
    for S in (
        FiniteSet(Q2, (FinVec.of(1, 1),)),
        Interval(Q2, FinVec.zero(2), FinVec.of(1, 1)),
        Interval(Q2, FinVec.of(-2, -1), FinVec.of(1, 1)),
        FiniteSet(ZD, (ZInt(5),)),
        Interval(ZD, ZInt(-1), ZInt(3)),
    ):
        x, y = non_solid_witness(S)
        assert set_contains(S, y)
        assert not set_contains(S, x)
        assert abs(x) <= abs(y)
    assert non_solid_witness(Interval(ZD, ZInt(-1), ZInt(3))) == (ZInt(-3), ZInt(3))


def test_non_solid_witness_of_a_large_integer_takes_one_step():
    # The unit steps below y are made one at a time: the first one is the witness.
    v = 10**12
    start = time.perf_counter()
    assert non_solid_witness(FiniteSet(ZD, (ZInt(v),))) == (ZInt(v - 1), ZInt(v))
    assert non_solid_witness(FiniteSet(ZD, (ZInt(-v),))) == (ZInt(1 - v), ZInt(-v))
    assert time.perf_counter() - start < 1


def test_solid_sets_pass_spot_checks():
    rng = rng_for(23)
    solids = [
        NbhdSet(SUP, Neighborhood.sup_ball(F(3, 2))),
        SolidHull(PROD, (EvSeq.of(2, -1, tail=1),)),
        Interval(Q2, FinVec.of(-2, -3), FinVec.of(2, 3)),
    ]
    for S in solids:
        assert is_solid(S)
        for _ in range(100):
            y = sample_member(S, rng)
            x = y.scale(F(rng.randint(-4, 4), 4))
            if abs(x) <= abs(y):
                assert set_contains(S, x)


def test_order_closedness_via_monotone_sequences():
    # Closed boxes contain the limits of monotone sequences from inside.
    U = Neighborhood.box((1, 2))
    S = NbhdSet(Q2, U)
    assert is_order_closed(S)
    corner = FinVec.of(1, 2)
    for k in range(1, 20):
        assert set_contains(S, corner.scale(F(k - 1, k)))       # increasing to the corner
        assert set_contains(S, (-corner).scale(F(k - 1, k)))    # decreasing to the opposite one
    assert set_contains(S, corner) and set_contains(S, -corner)


def test_fatou_for_all_topologies():
    for top in TopologyId:
        assert fatou_check(top)


def test_hull_preservation_and_gate():
    assert hull_bounded_preservation(FiniteSet(Q2, (FinVec.of(1, -2),)))
    assert hull_bounded_preservation(FiniteSet(SUP, (EvSeq.of(3, tail=1),)))

    with pytest.raises(NotBounded):
        hull_bounded_preservation(NbhdSet(PROD, Neighborhood.product({0}, 1)))


def test_ring_and_group_agree_on_box_instances():
    from latring.audits import boundedness_agreement_suite

    result = boundedness_agreement_suite(seed=2, cases=500)
    assert result.passed, result.detail


def test_sampled_members_respect_bounds():
    from latring.audits import sampler_bound_suite

    result = sampler_bound_suite(seed=2, cases=300)
    assert result.passed, result.detail


def test_neighborhood_validation():
    from latring import InvalidElement

    with pytest.raises(InvalidElement):
        Neighborhood.box((0, 1))
    with pytest.raises(InvalidElement):
        Neighborhood.product({0}, 0)
    with pytest.raises(InvalidElement):
        NbhdSet(PROD, Neighborhood.sup_ball(1))  # wrong base for the space
    for radii in ((1,), (1, 1, 1)):
        with pytest.raises(InvalidElement):
            NbhdSet(Q2, Neighborhood.box(radii))  # one radius per coordinate
