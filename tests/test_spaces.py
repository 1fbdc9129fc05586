"""Space-level operations: ring products, the disjointness axiom, witnesses."""

from fractions import Fraction as F

import pytest

from latring import (
    EvSeq,
    FinVec,
    InvalidElement,
    Multiplication,
    Space,
    TopologyId,
    ZInt,
    archimedean_witness,
    check_f_ring,
    join,
    matrix2_mul,
    meet,
    neg_part,
    pos_part,
    ring_mul,
)
from latring.sampling import rand_element, rng_for


def independent_mat2_mul(x, y):
    """Hand-rolled 2x2 product, independent of the library's flattened multiply."""
    a = [[x[0], x[1]], [x[2], x[3]]]
    b = [[y[0], y[1]], [y[2], y[3]]]
    c = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return FinVec.of(c[0][0], c[0][1], c[1][0], c[1][1])


def test_ring_mul_pointwise_and_zero():
    s = Space.qn(2)
    assert ring_mul(s, FinVec.of(1, -2), FinVec.of(3, 4)) == FinVec.of(3, -8)
    z = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)
    assert ring_mul(z, EvSeq.of(5, tail=2), EvSeq.of(7, tail=3)) == EvSeq.zero()


def test_z_space_ops():
    s = Space.z_discrete()
    a, b = ZInt(3), ZInt(-5)
    assert join(s, a, b) == a and meet(s, a, b) == b
    assert ring_mul(s, a, b) == ZInt(-15)
    assert pos_part(s, b) == ZInt(0) and neg_part(s, b) == ZInt(5)
    with pytest.raises(InvalidElement):
        join(s, a, F(1, 2))


def test_an_integer_of_z_is_a_one_coordinate_integer_row():
    s = Space.z_discrete()
    assert ZInt(F(6, 2)) == ZInt(3) and ZInt(3).int_row == (1, (3,)) and int(ZInt(-4)) == -4
    # A plain int, or a rational vector of one coordinate, is not an element of Z ...
    for x in (3, FinVec.of(3)):
        with pytest.raises(InvalidElement, match="expected an integer"):
            s.validate(x)
    with pytest.raises(InvalidElement):
        Space.qn(1).validate(ZInt(3))
    with pytest.raises(InvalidElement):
        ZInt(3) + FinVec.of(1)
    # ... and nothing that is not an integer becomes one.
    for build in (lambda: ZInt(F(1, 2)), lambda: ZInt(True), lambda: ZInt(3).scale(F(1, 2))):
        with pytest.raises(InvalidElement):
            build()
    assert ZInt(3).scale(F(2, 3)) == ZInt(2)


def test_f_ring_holds_on_disjoint_supports():
    s = Space.qn(2)
    verdict = check_f_ring(s, [(FinVec.of(1, 0), FinVec.of(0, 1), FinVec.of(5, 5))])
    assert verdict.holds and verdict.checked == 1


def test_f_ring_matrix_witness_verified_independently():
    s = Space.qn(4)
    a, b, c = FinVec.of(1, 0, 0, 0), FinVec.of(0, 0, 1, 0), FinVec.of(0, 0, 1, 0)
    # The flattened multiply agrees with a hand-rolled matrix product.
    assert matrix2_mul(c, a) == independent_mat2_mul(c, a) == b
    assert matrix2_mul(a, c) == independent_mat2_mul(a, c) == FinVec.zero(4)
    verdict = check_f_ring(s, [(a, b, c)], mul=matrix2_mul)
    assert not verdict.holds
    assert verdict.witness == (a, b, c)
    # c*a = b, so (c*a) meet b = b, nonzero.
    assert meet(s, matrix2_mul(c, a), b) == b != s.zero()


def test_f_ring_zero_multiplication_always_holds():
    z = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)
    rng = rng_for(3)
    samples = []
    for _ in range(50):
        v = rand_element(rng, z)
        w = rand_element(rng, z)
        samples.append((v.pos_part(), v.neg_part(), abs(w)))
    assert check_f_ring(z, samples).holds


def test_f_ring_skips_inadmissible_samples():
    s = Space.qn(2)
    bad = (FinVec.of(1, 1), FinVec.of(1, 0), FinVec.of(1, 1))  # a /\ b != 0
    verdict = check_f_ring(s, [bad])
    assert verdict.holds and verdict.checked == 0 and verdict.skipped == (bad,)


def brute_force_least_n(space, x, y, cap=100000):
    """Independent oracle: linear scan for the least n with n*x not<= y."""
    zero = space.zero()
    for n in range(1, cap):
        scaled = n * x if isinstance(x, int) else x.scale(n)
        if not (scaled <= y):
            return n
    return None


def test_archimedean_examples_match_scan():
    q1 = Space.qn(1)
    x, y = FinVec.of(1), FinVec.of(100)
    assert archimedean_witness(q1, x, y) == 101 == brute_force_least_n(q1, x, y)

    q2 = Space.qn(2)
    assert archimedean_witness(q2, FinVec.of(-1, 0), FinVec.zero(2)) is None

    e = Space.evseq()
    x, y = EvSeq.constant(F(1, 2)), EvSeq.constant(10)
    assert archimedean_witness(e, x, y) == 21 == brute_force_least_n(e, x, y)


def test_archimedean_never_nonpositive_with_positive_coordinate():
    rng = rng_for(19)
    q3 = Space.qn(3)
    for _ in range(300):
        x = rand_element(rng, q3)
        y = rand_element(rng, q3)
        n = archimedean_witness(q3, x, y)
        if any(c > 0 for c in x.entries):
            assert n is not None
            assert n == brute_force_least_n(q3, x, y)


def test_space_validation():
    from latring import SpaceKind

    with pytest.raises(InvalidElement):
        Space.qn(0)
    with pytest.raises(InvalidElement):
        Space(SpaceKind.Z_DISCRETE, TopologyId.Z_DISCRETE_TOP, Multiplication.ZERO, None)
    with pytest.raises(InvalidElement):
        Space(SpaceKind.EVSEQ, TopologyId.QN_BOX, Multiplication.POINTWISE, None)
