"""Homomorphism calculus: application, extension, decomposition, positive parts."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latring import (
    INF,
    ConeMap,
    CoordBounds,
    DecompositionPrereqViolated,
    EvSeq,
    FinVec,
    IdentityHom,
    InvalidElement,
    MatrixHom,
    NotAdditiveOnCone,
    NotBoundedAbove,
    OracleTooLarge,
    SeqHom,
    Space,
    directed_sup,
    extend_from_cone,
    hom_join,
    hom_meet,
    is_order_bounded,
    modulus,
    negative_part,
    positive_part,
    riesz_decompose,
    sup_over_interval_oracle,
    truncation_matrix,
)
from latring.extended import ext_add, ext_mul
from latring.sampling import rand_finvec, rand_matrix_rows, rand_pos_finvec, rng_for

T_EXAMPLE = MatrixHom(((1, -2), (-3, 4)))


def test_apply_examples():
    assert T_EXAMPLE.apply(FinVec.of(1, 1)) == FinVec.of(-1, 1)
    ident = IdentityHom.on(Space.evseq())
    x = EvSeq.of(2, -5, tail=1)
    assert ident.apply(x) == x
    d = SeqHom.diagonal(EvSeq.of(2, tail=1))
    y = d.apply(EvSeq.of(1, 1, tail=3))
    # Index-wise product, checked at the first three indices.
    assert (y.at(0), y.at(1), y.at(2)) == (F(2), F(1), F(3))
    assert y == EvSeq.of(2, 1, tail=3)


def test_seq_hom_normal_form_identities():
    # A block whose diagonal folds away equals the plain diagonal operator.
    a = EvSeq.of(1, 2, tail=3)
    block = ((F(5), F(0)), (F(0), F(7)))
    h = SeqHom.diag_plus_block(a, block)
    assert h == SeqHom.diagonal(EvSeq.of(6, 9, tail=3))
    assert IdentityHom.on(Space.evseq()) == SeqHom.identity()
    assert IdentityHom.on(Space.qn(3)) == MatrixHom.identity(3)
    # Diagonal prefix longer than the block.
    g = SeqHom.diag_plus_block(EvSeq.of(1, 2, 3, tail=4), ((F(10),),))
    assert g == SeqHom.diagonal(EvSeq.of(11, 2, 3, tail=4))
    x = EvSeq.of(1, 1, 1, tail=1)
    assert g.apply(x) == EvSeq.of(11, 2, 3, tail=4)


def test_sup_oracle_examples():
    assert sup_over_interval_oracle(T_EXAMPLE, FinVec.of(1, 1)) == FinVec.of(1, 4)
    ident = MatrixHom.identity(3)
    x = FinVec.of(2, 0, 5)
    assert sup_over_interval_oracle(ident, x) == x
    nonpos = MatrixHom(((-1, -2), (0, -3)))
    assert sup_over_interval_oracle(nonpos, FinVec.of(1, 1)) == FinVec.zero(2)
    with pytest.raises(OracleTooLarge):
        sup_over_interval_oracle(MatrixHom.identity(17), FinVec.zero(17).pos_part())


def test_positive_part_examples_and_oracle_agreement():
    assert positive_part(T_EXAMPLE) == MatrixHom(((1, 0), (0, 4)))
    pos = MatrixHom(((2, 1), (0, 3)))
    assert positive_part(pos) == pos
    rng = rng_for(13)
    for _ in range(200):
        x = rand_pos_finvec(rng, 2)
        assert positive_part(T_EXAMPLE).apply(x) == sup_over_interval_oracle(T_EXAMPLE, x)


def test_diagonal_positive_part_against_onedim_oracle():
    d = SeqHom.diagonal(EvSeq.of(-1, 2, tail=-3))
    p = positive_part(d)
    assert p == SeqHom.diagonal(EvSeq.of(0, 2, tail=0))
    # One-dimensional oracle per coordinate: sup {a*y : 0 <= y <= x} = max(a*x, 0).
    for i, x in ((0, F(4)), (1, F(4)), (2, F(7))):
        a = d.diag.at(i)
        assert p.diag.at(i) * x == max(a * x, F(0))


def test_seq_hom_positive_part_matches_truncation_oracle():
    rng = rng_for(29)
    for _ in range(50):
        coeffs = EvSeq(tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)), 0)
        block = rand_matrix_rows(rng, 3, span=5)
        h = SeqHom.diag_plus_block(coeffs, block)
        trunc = truncation_matrix(h, 4)
        x = rand_pos_finvec(rng, 4)
        assert truncation_matrix(positive_part(h), 4).apply(x) == sup_over_interval_oracle(trunc, x)


def test_negative_part_modulus_examples():
    assert negative_part(T_EXAMPLE) == MatrixHom(((0, 2), (3, 0)))
    assert modulus(T_EXAMPLE) == MatrixHom(((1, 2), (3, 4)))
    assert positive_part(T_EXAMPLE) - negative_part(T_EXAMPLE) == T_EXAMPLE


def test_hom_join_meet_identities():
    rng = rng_for(31)
    for _ in range(200):
        T = MatrixHom(rand_matrix_rows(rng, 3))
        S = MatrixHom(rand_matrix_rows(rng, 3))
        zero = MatrixHom.zero(3)
        assert hom_join(T, T) == T
        assert hom_meet(T, zero) == -negative_part(T)
        assert hom_join(T, S) + hom_meet(T, S) == T + S
        assert hom_meet(positive_part(T), negative_part(T)) == zero


def test_cone_extension_examples():
    doubling = ConeMap(Space.qn(1), hom=MatrixHom(((2,),)))
    ext = extend_from_cone(doubling)
    assert ext.apply(FinVec.of(-3)) == FinVec.of(-6)

    upper = MatrixHom(((1, 1), (0, 1)))
    ext = extend_from_cone(ConeMap(Space.qn(2), hom=upper))
    x = FinVec.of(-1, 2)
    # f(x+) - f(x-) = f((0,2)) - f((1,0)) = (2,2) - (1,0).
    assert ext.apply(x) == FinVec.of(1, 2) == upper.apply(x)
    # Negation preservation.
    assert ext.apply(-x) == -ext.apply(x)


def test_cone_extension_rejects_planted_table():
    bad = ConeMap(
        Space.qn(2),
        table=(
            (FinVec.of(1, 0), FinVec.of(1, 0)),
            (FinVec.of(0, 1), FinVec.of(0, 0)),
            (FinVec.of(1, 1), FinVec.of(5, 5)),
        ),
    )
    with pytest.raises(NotAdditiveOnCone) as err:
        extend_from_cone(bad)
    assert set(err.value.witness) == {FinVec.of(1, 0), FinVec.of(0, 1)}


def test_cone_extension_reproduces_matrices():
    rng = rng_for(37)
    for _ in range(200):
        n = rng.randint(1, 4)
        T = MatrixHom(rand_matrix_rows(rng, n))
        ext = extend_from_cone(ConeMap(Space.qn(n), hom=T), samples=3, seed=rng.randint(0, 999))
        for _ in range(3):
            x = rand_finvec(rng, n)
            assert ext.apply(x) == T.apply(x)


def test_decompose_examples():
    q2 = Space.qn(2)
    assert riesz_decompose(q2, FinVec.of(1, 1), FinVec.of(2, 0), FinVec.of(0, 2)) == (
        FinVec.of(1, 0),
        FinVec.of(0, 1),
    )
    assert riesz_decompose(q2, FinVec.zero(2), FinVec.of(2, 0), FinVec.of(0, 2)) == (
        FinVec.zero(2),
        FinVec.zero(2),
    )
    q1 = Space.qn(1)
    x1, x2 = riesz_decompose(q1, FinVec.of(3), FinVec.of(-2), FinVec.of(2))
    assert (x1, x2) == (FinVec.of(2), FinVec.of(1))
    with pytest.raises(DecompositionPrereqViolated):
        riesz_decompose(q1, FinVec.of(5), FinVec.of(-2), FinVec.of(2))


def test_decompose_random_audit():
    q5 = Space.qn(5)
    rng = rng_for(41)
    for i in range(1000):
        y1, y2 = rand_finvec(rng, 5), rand_finvec(rng, 5)
        cap = abs(y1) + abs(y2)
        scale = F(rng.randint(0, 24), 24) if i % 2 else F(rng.randint(-24, 24), 24)
        x = FinVec(tuple(scale * c for c in cap))
        x1, x2 = riesz_decompose(q5, x, y1, y2)
        assert x1 + x2 == x
        assert abs(x1) <= abs(y1) and abs(x2) <= abs(y2)
        if FinVec.zero(5) <= x:
            assert FinVec.zero(5) <= x1 and FinVec.zero(5) <= x2


def test_directed_sup_examples():
    d1 = MatrixHom(((1, 0), (0, 0)))
    d2 = MatrixHom(((0, 0), (0, 1)))
    ident = MatrixHom.identity(2)
    assert directed_sup([d1, d2], ident) == ident
    assert directed_sup([T_EXAMPLE], modulus(T_EXAMPLE)) == T_EXAMPLE
    assert directed_sup([T_EXAMPLE, positive_part(T_EXAMPLE)], modulus(T_EXAMPLE)) == positive_part(T_EXAMPLE)
    with pytest.raises(NotBoundedAbove):
        directed_sup([ident], MatrixHom.zero(2))


def test_directed_sup_pointwise_supremum():
    rng = rng_for(43)
    for _ in range(100):
        family = [MatrixHom(rand_matrix_rows(rng, 3)) for _ in range(3)]
        envelope = family[0]
        for T in family[1:]:
            envelope = hom_join(envelope, T)
        S = directed_sup(family, envelope)
        assert S == envelope
        x = rand_pos_finvec(rng, 3)
        best = family[0].apply(x)
        for T in family[1:]:
            best = best.join(T.apply(x))
        # The supremum evaluates to the pointwise max over the join closure.
        assert best <= S.apply(x)
        for T in family:
            assert (S - T).positive_part() == S - T


def test_hom_verdict_positive_implies_order_bounded():
    from latring import describe_hom

    rng = rng_for(47)
    for _ in range(100):
        T = MatrixHom(rand_matrix_rows(rng, 3)).positive_part()
        v = describe_hom(T, FinVec.constant(3, 2))
        assert v.positive and v.order_bounded
    d = SeqHom.diagonal(EvSeq.of(-1, tail=2))
    v = describe_hom(d, EvSeq.constant(1))
    assert v.order_bounded and not v.positive


def test_is_order_bounded_witness():
    probe = FinVec.of(1, 1)
    w = is_order_bounded(T_EXAMPLE, probe)
    assert w.bounded
    assert w.hi == modulus(T_EXAMPLE).apply(probe) == FinVec.of(3, 7)
    assert w.lo == -w.hi

    d = SeqHom.diagonal(EvSeq.of(-2, tail=F(1, 2)))
    p = EvSeq.of(1, 2, tail=1)
    w = is_order_bounded(d, p)
    assert w.hi == abs(EvSeq.of(-2, tail=F(1, 2))) * p


# ---------------------------------------------------------------------------
# The integer kernel against the entrywise Fraction formula.

def _fraction_apply(T, x):
    return FinVec(tuple(sum((t * v for t, v in zip(row, x.entries)), F(0)) for row in T.rows))


def _fraction_bounds(T, b):
    out = []
    for row in T.rows:
        acc = F(0)
        for j, t in enumerate(row):
            acc = ext_add(acc, ext_mul(abs(t), b.at(j)))
        out.append(acc)
    return CoordBounds.finite_dim(out)


# Denominators 3, 5, 7 and 8 are pairwise coprime: a row mixing them has lcm 840.
kernel_rats = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 3, 5, 7, 8]))


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 8))
    rows = [
        [F(0)] * n if draw(st.integers(0, 3)) == 0 else draw(st.lists(kernel_rats, min_size=n, max_size=n))
        for _ in range(n)
    ]
    x = FinVec(tuple(draw(st.lists(kernel_rats, min_size=n, max_size=n))))
    bound = st.one_of(st.just(INF), kernel_rats.map(abs))
    b = CoordBounds.finite_dim(draw(st.lists(bound, min_size=n, max_size=n)))
    return MatrixHom(tuple(map(tuple, rows))), x, b


@given(kernel_cases())
def test_integer_kernel_matches_fraction_formula(case):
    T, x, b = case
    assert T.apply(x) == _fraction_apply(T, x)
    assert T.propagate_bounds(b) == _fraction_bounds(T, b)


def test_integer_kernel_examples():
    T = MatrixHom(((F(1, 3), F(-2, 5), F(3, 7), F(-1, 8)), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, -1, 2)))
    x = FinVec.of(F(1, 2), 3, F(-5, 9), 1)
    assert T.apply(x) == _fraction_apply(T, x)
    # A zero coefficient kills an unbounded coordinate; a nonzero one propagates it.
    b = CoordBounds.finite_dim((F(1), INF, F(2, 3), F(4)))
    assert T.propagate_bounds(b).head == (INF, F(0), F(1), F(26, 3))
    assert T.propagate_bounds(b) == _fraction_bounds(T, b)
    # The cached integer rows leave equality, hash and rendering alone.
    fresh = MatrixHom(T.rows)
    assert T == fresh and hash(T) == hash(fresh) and repr(T) == repr(fresh) and T.render() == fresh.render()


@pytest.mark.parametrize("length", [1, 3])
def test_propagate_bounds_rejects_wrong_length(length):
    with pytest.raises(InvalidElement):
        MatrixHom.identity(2).propagate_bounds(CoordBounds.finite_dim((F(1),) * length))
