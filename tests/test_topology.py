"""Neighborhoods, symbolic sets, bound functions, and the boundedness deciders."""

from fractions import Fraction as F
from functools import reduce
from itertools import product

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
    is_solid,
    join,
    meet,
    sample_member,
    set_contains,
    set_group_bounded,
    set_ring_bounded,
)
from latring.errors import SoundnessBug
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


@pytest.mark.parametrize(
    "bounds, topology, message",
    [
        (CoordBounds.sequence((), F(0)), TopologyId.EVSEQ_PRODUCT, "^no escaping coordinate found$"),
        (CoordBounds.finite_dim((F(1),)), TopologyId.Z_DISCRETE_TOP, "^nothing escapes the discrete base$"),
    ],
    ids=["all-zero-product", "discrete"],
)
def test_refuting_nbhd_refuses_bounds_that_nothing_refutes(bounds, topology, message):
    # Every product neighborhood holds the zero bounds, and {0} is never asked to refute.
    with pytest.raises(SoundnessBug, match=message):
        refuting_nbhd(bounds, topology)


def test_nbhd_membership_examples():
    x = EvSeq.of(1, -1, tail=5)
    assert Neighborhood.product({0, 1}, 1).member(x)       # tail unconstrained
    assert not Neighborhood.sup_ball(1).member(x)          # |5| > 1
    assert Neighborhood.box((1, 2)).member(FinVec.of(1, -2))  # closed box boundary


def test_solid_hull_membership():
    hull = SolidHull(Q2, (FinVec.of(1, -2),))
    assert set_contains(hull, FinVec.of(1, 2))
    assert set_contains(hull, FinVec.of(-1, F(3, 2)))
    assert not set_contains(hull, FinVec.of(2, 0))

    two = SolidHull(Q2, (FinVec.of(1, 0), FinVec.of(0, 1)))
    assert not set_contains(two, FinVec.of(1, 1))  # neither generator dominates
    assert set_contains(two, FinVec.of(0, -1))


def test_solid_hull_idempotent_membership():
    rng = rng_for(5)
    hull = SolidHull(Q2, (FinVec.of(2, -1), FinVec.of(0, 3)))
    hull2 = SolidHull(Q2, tuple(hull.generators))
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
    # A diagonal image of a diagonal image is one image, under the product of the diagonals.
    assert set_contains(ImageSet(PROD, SeqHom.zero(), img2), EvSeq.zero())


def test_image_bounds_are_exact_box_by_box():
    shear = MatrixHom([[1, -1], [0, 1]])
    assert coordinate_bounds(ImageSet(Q2, shear, Interval(Q2, FinVec.of(0, 0), FinVec.of(1, 1)))).head == (1, 1)
    assert coordinate_bounds(ImageSet(Q2, shear, FiniteSet(Q2, (FinVec.of(1, 1),)))).head == (0, 1)
    hull = SolidHull(Q2, (FinVec.of(1, 0), FinVec.of(0, 1)))
    assert coordinate_bounds(ImageSet(Q2, MatrixHom([[1, 1], [0, 1]]), hull)).head == (1, 1)
    # A non-diagonal chain is not decided, even where its composite is 0.
    block = [[0] * 6 for _ in range(6)]
    block[0][5] = block[1][5] = 1
    s = SeqHom.diag_plus_block(EvSeq.zero(), block)
    t = SeqHom.diag_plus_block(EvSeq.zero(), [[1, -1], [0, 0]])
    outer = ImageSet(PROD, t, ImageSet(PROD, s, NbhdSet(PROD, Neighborhood.product({0}, 1))))
    for decide in (coordinate_bounds, set_ring_bounded, is_solid):
        with pytest.raises(InvalidElement, match="not decided"):
            decide(outer)
    with pytest.raises(InvalidElement, match="not decided"):
        set_contains(outer, EvSeq.zero())


_RATS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def images_and_boxes(draw):
    """An image set on Q^1..Q^4 or on Z, its maps as rows (innermost first), and the boxes [lo, hi] of its base.

    The base is a finite set, a hull, an interval or a neighborhood; a chain of two maps is diagonal, or over a
    finite set.
    """
    on_z = draw(st.integers(0, 4)) == 0
    dim = 1 if on_z else draw(st.integers(1, 4))
    space, scalars = (ZD, st.integers(-5, 5)) if on_z else (Space.qn(dim), _RATS)
    vectors = st.lists(scalars, min_size=dim, max_size=dim)
    make = (lambda v: ZInt(v[0])) if on_z else FinVec
    kind = draw(st.sampled_from(["finite", "hull", "interval", "nbhd"]))
    if kind == "interval":
        a, b = draw(vectors), draw(vectors)
        boxes = [(list(map(min, a, b)), list(map(max, a, b)))]
        base = Interval(space, *map(make, boxes[0]))
    elif kind == "nbhd":
        radii = [0] if on_z else [abs(r) + F(1, 4) for r in draw(vectors)]
        boxes = [([-r for r in radii], radii)]
        base = NbhdSet(space, Neighborhood.discrete_zero() if on_z else Neighborhood.box(radii))
    else:
        points = draw(st.lists(vectors, min_size=1, max_size=3))
        if kind == "finite":
            boxes, base = [(p, p) for p in points], FiniteSet(space, tuple(map(make, points)))
        else:
            boxes = [([-abs(a) for a in p], [abs(a) for a in p]) for p in points]
            base = SolidHull(space, tuple(map(make, points)))
    links = draw(st.integers(1, 2))
    coefficients = st.integers(-3, 3) if on_z else _RATS
    diagonal = links == 2 and kind != "finite"
    maps = [[[draw(coefficients) if i == j or not diagonal else 0 for j in range(dim)] for i in range(dim)]
            for _ in range(links)]
    S = base
    for rows in maps:
        S = ImageSet(space, MatrixHom(rows), S)
    return S, maps, boxes


@settings(max_examples=300)
@given(images_and_boxes())
def test_image_bounds_are_the_largest_vertex_image(case):
    # A linear map takes its extremes over a box at the box's vertices, so this brute force is exact.
    S, maps, boxes = case

    def image(v):
        return reduce(lambda x, rows: [sum(a * b for a, b in zip(row, x)) for row in rows], maps, v)

    corners = [image(v) for lo, hi in boxes for v in product(*zip(lo, hi))]
    expected = tuple(max(abs(x[i]) for x in corners) for i in range(len(boxes[0][0])))
    assert coordinate_bounds(S).head == expected


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


def test_solidity_has_one_decider():
    assert is_solid(FiniteSet(ZD, (ZInt(-1), ZInt(0), ZInt(1))))
    assert non_solid_witness(FiniteSet(ZD, (ZInt(0), ZInt(1)))) == (ZInt(-1), ZInt(1))
    # A diagonal image of an interval is the interval between the images of its ends.
    flip = ImageSet(Q2, MatrixHom([[-1, 0], [0, 3]]), Interval(Q2, FinVec.of(-2, -1), FinVec.of(2, 1)))
    assert is_solid(flip)
    x, y = non_solid_witness(ImageSet(Q2, MatrixHom([[0, 0], [0, 2]]), Interval(Q2, FinVec.of(0, 0), FinVec.of(1, 1))))
    assert (x, y) == (FinVec.of(0, -2), FinVec.of(0, 2))
    # A non-diagonal image of a box is not decided, nor is n -> 2n on Z: never "not solid" without a witness.
    swap = MatrixHom([[0, 1], [1, 0]])
    for S in (ImageSet(Q2, swap, NbhdSet(Q2, Neighborhood.box((1, 2)))),
              ImageSet(ZD, MatrixHom([[2]]), Interval(ZD, ZInt(-3), ZInt(3)))):
        with pytest.raises(InvalidElement, match="not decided"):
            is_solid(S)
    # Every image of {0} is {0}.
    assert is_solid(ImageSet(Q2, swap, SolidHull(Q2, (FinVec.zero(2),))))
    # A diagonal image of a diagonal image is one image, a zero coefficient included.
    inner = ImageSet(Q2, MatrixHom.identity(2), Interval(Q2, FinVec.of(0, 0), FinVec.of(1, 1)))
    assert non_solid_witness(ImageSet(Q2, MatrixHom([[2, 0], [0, 3]]), inner)) == (FinVec.of(-2, 3), FinVec.of(2, 3))
    assert non_solid_witness(ImageSet(Q2, MatrixHom([[0, 0], [0, 3]]), inner)) == (FinVec.of(0, -3), FinVec.of(0, 3))


def _solid_by_brute_force(ints: set[int]) -> bool:
    m = max(map(abs, ints))
    return set(range(-m, m + 1)) <= ints


@settings(max_examples=300)
@given(st.sets(st.integers(-6, 6), min_size=1), st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([-1, 1]),
       st.integers(-3, 3))
def test_is_solid_on_z_is_brute_force(ints, a, b, unit, c):
    lo, hi = min(a, b), max(a, b)
    finite = FiniteSet(ZD, tuple(map(ZInt, sorted(ints))))
    interval = Interval(ZD, ZInt(lo), ZInt(hi))
    cases = [
        (finite, ints),
        (ImageSet(ZD, MatrixHom([[c]]), finite), {c * n for n in ints}),
        (interval, set(range(lo, hi + 1))),
        (ImageSet(ZD, MatrixHom([[unit]]), interval), {unit * n for n in range(lo, hi + 1)}),
        (SolidHull(ZD, (ZInt(a), ZInt(b))), set(range(-max(abs(a), abs(b)), max(abs(a), abs(b)) + 1))),
    ]
    for S, members in cases:
        assert is_solid(S) == _solid_by_brute_force(members), S


def test_a_large_solid_integer_set_is_decided_at_once():
    S = FiniteSet(ZD, tuple(map(ZInt, range(-10**5, 10**5 + 1))))
    start = time.perf_counter()
    assert is_solid(S)
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
