"""Homomorphism calculus: application, extension, decomposition, positive parts."""

import copy
import itertools
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latring import (
    INF,
    ConeMap,
    CoordBounds,
    DecompositionPrereqViolated,
    EvSeq,
    FinVec,
    InvalidElement,
    MatrixHom,
    NotAdditiveOnCone,
    NotBoundedAbove,
    OracleTooLarge,
    SeqHom,
    SoundnessBug,
    Space,
    ZInt,
    directed_sup,
    extend_from_cone,
    hom_join,
    hom_meet,
    identity_on,
    is_order_bounded,
    modulus,
    negative_part,
    positive_part,
    riesz_decompose,
    sup_over_interval_oracle,
    truncation_matrix,
)
from latring.extended import ext_mul, is_inf
from latring.sampling import rand_element, rand_matrix_rows, rand_pos_element, rng_for

T_EXAMPLE = MatrixHom(((1, -2), (-3, 4)))


def test_apply_examples():
    assert T_EXAMPLE.apply(FinVec.of(1, 1)) == FinVec.of(-1, 1)
    ident = identity_on(Space.evseq())
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
    assert identity_on(Space.evseq()) == SeqHom.identity()
    assert identity_on(Space.qn(3)) == MatrixHom.identity(3)
    assert identity_on(Space.z_discrete()) == MatrixHom.identity(1)
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
        x = rand_pos_element(rng, Space.qn(2))
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
        x = rand_pos_element(rng, Space.qn(4))
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
    doubling = ConeMap(Space.qn(1), MatrixHom(((2,),)), ())
    ext = extend_from_cone(doubling)
    assert ext.apply(FinVec.of(-3)) == FinVec.of(-6)

    upper = MatrixHom(((1, 1), (0, 1)))
    ext = extend_from_cone(ConeMap(Space.qn(2), upper, ()))
    x = FinVec.of(-1, 2)
    # f(x+) - f(x-) = f((0,2)) - f((1,0)) = (2,2) - (1,0).
    assert ext.apply(x) == FinVec.of(1, 2) == upper.apply(x)
    # Negation preservation.
    assert ext.apply(-x) == -ext.apply(x)


def test_cone_extension_rejects_planted_table():
    bad = ConeMap(
        Space.qn(2),
        None,
        (
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
        ext = extend_from_cone(ConeMap(Space.qn(n), T, ()), samples=3, seed=rng.randint(0, 999))
        for _ in range(3):
            x = rand_element(rng, Space.qn(n))
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
        y1, y2 = rand_element(rng, Space.qn(5)), rand_element(rng, Space.qn(5))
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
        x = rand_pos_element(rng, Space.qn(3))
        best = family[0].apply(x)
        for T in family[1:]:
            best = best.join(T.apply(x))
        # The supremum evaluates to the pointwise max over the join closure.
        assert best <= S.apply(x)
        for T in family:
            assert (S - T).positive_part() == S - T


def test_identity_on_the_integers_is_positive_and_order_bounded():
    ident = identity_on(Space.z_discrete())
    assert modulus(ident) == ident and ident.is_positive()
    w = is_order_bounded(ident, ZInt(3))
    assert (w.lo, w.hi) == (ZInt(-3), ZInt(3)) and w.spot_checked == 25


def test_is_order_bounded_witness():
    probe = FinVec.of(1, 1)
    w = is_order_bounded(T_EXAMPLE, probe)
    assert w.spot_checked == 25
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


def _ext_add(a, b):
    return INF if is_inf(a) or is_inf(b) else a + b


def _fraction_bounds(T, b):
    out = []
    for row in T.rows:
        acc = F(0)
        for j, t in enumerate(row):
            acc = _ext_add(acc, ext_mul(abs(t), b.at(j)))
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


# ---------------------------------------------------------------------------
# Integer-native operator arithmetic against entrywise Fraction formulas.

op_rats = st.builds(F, st.one_of(st.integers(-2, 2), st.integers(-30, 30)), st.integers(1, 8))
scale_factors = st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, 6), st.integers(1, 8)))


@st.composite
def fraction_rows(draw, n):
    # A quarter of the rows are zero; rows over 3, 5, 7 and 8 reach lcm 840.
    return tuple(
        (F(0),) * n if draw(st.integers(0, 3)) == 0 else tuple(draw(st.lists(op_rats, min_size=n, max_size=n)))
        for _ in range(n)
    )


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 6))
    rows_t, rows_s = draw(fraction_rows(n)), draw(fraction_rows(n))

    def build(rows):
        # Either construction path: from Fraction rows, or the result of integer arithmetic.
        T = MatrixHom(rows)
        return T.scale(1) if draw(st.booleans()) else T

    return rows_t, rows_s, build(rows_t), build(rows_s), draw(scale_factors)


def _entrywise(f, *row_sets):
    return tuple(tuple(map(f, *rows)) for rows in zip(*row_sets))


def _same_hom(result, rows):
    fresh = MatrixHom(result.rows)
    assert result.rows == rows
    assert result == fresh == MatrixHom(rows) and hash(result) == hash(fresh) == hash(MatrixHom(rows))
    assert repr(result) == repr(fresh) and result.render() == fresh.render()


@given(operand_pairs())
def test_integer_ops_match_entrywise_fraction_formulas(case):
    rows_t, rows_s, T, S, q = case
    _same_hom(T + S, _entrywise(lambda a, b: a + b, rows_t, rows_s))
    _same_hom(T - S, _entrywise(lambda a, b: a - b, rows_t, rows_s))
    _same_hom(-T, _entrywise(lambda a: -a, rows_t))
    _same_hom(T.scale(q), _entrywise(lambda a: q * a, rows_t))
    _same_hom(T.positive_part(), _entrywise(lambda a: max(a, F(0)), rows_t))
    _same_hom(T.entrywise_abs(), _entrywise(abs, rows_t))
    bound = T.entrywise_abs() + S.entrywise_abs()
    _same_hom(directed_sup([T, S], bound), _entrywise(max, rows_t, rows_s))
    assert T.is_zero() == all(a == 0 for row in rows_t for a in row)
    assert T.is_positive() == all(a >= 0 for row in rows_t for a in row)
    assert T.is_diagonal() == all(a == 0 for i, row in enumerate(rows_t) for j, a in enumerate(row) if i != j)
    # One canonical form whatever the path that built it.
    n = T.n
    assert (T + S) - S == T and hash((T + S) - S) == hash(T)
    assert T - T == MatrixHom.zero(n) and hash(T - T) == hash(MatrixHom.zero(n))
    assert T.scale(0) == MatrixHom.zero(n) and (T - T).is_zero()
    assert T == MatrixHom(T.rows) and hash(T) == hash(MatrixHom(T.rows))
    identity = MatrixHom(tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n)))
    assert MatrixHom.identity(n) == identity and hash(MatrixHom.identity(n)) == hash(identity)


def test_integer_ops_examples():
    T = MatrixHom(((F(1, 2), F(-1, 6)), (F(1, 3), F(2, 3))))
    assert T.int_rows == ((6, (3, -1)), (3, (1, 2)))
    # Dropping the -1/6 leaves 3/6 = 1/2: the row is reduced to denominator 2.
    assert T.positive_part().int_rows == ((2, (1, 0)), (3, (1, 2)))
    assert T.positive_part() == MatrixHom(((F(1, 2), 0), (F(1, 3), F(2, 3))))
    assert (T + (-T).positive_part()).int_rows == ((2, (1, 0)), (3, (1, 2)))
    assert T.scale(F(-3, 2)).rows == ((F(-3, 4), F(1, 4)), (F(-1, 2), -1))
    assert repr(T - T) == "MatrixHom([['0', '0'], ['0', '0']])"


def test_matrix_hom_is_immutable():
    T = T_EXAMPLE + T_EXAMPLE
    for name in ("rows", "n", "extra"):
        with pytest.raises(AttributeError):
            setattr(T, name, None)
    with pytest.raises(AttributeError):
        del T.rows
    assert T.rows == ((2, -4), (-6, 8))


# ---------------------------------------------------------------------------
# The integer sequence apply against the entrywise Fraction formula.

def _fraction_seq_apply(h, x):
    k = h.block_size
    span = max(k, len(h.diag.prefix), len(x.prefix))
    entries = []
    for i in range(span):
        v = h.diag.at(i) * x.at(i)
        if i < k:
            v += sum((h.off[i][j] * x.at(j) for j in range(k)), F(0))
        entries.append(v)
    return EvSeq(tuple(entries), h.diag.tail * x.tail)


@st.composite
def seq_apply_cases(draw):
    """A block of up to 6 (a quarter of them zero) and a diagonal prefix of up to
    8, over mixed denominators; inputs longer and shorter than the support."""
    k = draw(st.integers(0, 6))
    rows = draw(fraction_rows(k)) if draw(st.integers(0, 3)) else ((F(0),) * k,) * k
    diag = EvSeq(tuple(draw(st.lists(kernel_rats, max_size=8))), draw(kernel_rats))
    x = EvSeq(tuple(draw(st.lists(kernel_rats, max_size=12))), draw(kernel_rats))
    return SeqHom.diag_plus_block(diag, rows), x


@given(seq_apply_cases())
def test_seq_apply_matches_fraction_formula(case):
    h, x = case
    assert h.apply(x) == _fraction_seq_apply(h, x)
    # The cached integer block leaves equality, hash and rendering alone.
    fresh = SeqHom(h.diag, h.off)
    assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh) and h.render() == fresh.render()


def test_seq_apply_examples():
    h = SeqHom.diag_plus_block(EvSeq.of(F(1, 3), tail=F(-1, 2)), ((0, F(2, 5), 0), (F(-1, 7), 0, 0), (0, 0, 0)))
    assert h.block_size == 2 and h.support_span() == 2
    # Shorter than the block, as long as it, and longer than the support.
    for x in (EvSeq.constant(F(3, 4)), EvSeq.of(1, F(-5, 8), tail=0), EvSeq.of(F(1, 9), 2, 3, F(-4, 3), tail=7)):
        assert h.apply(x) == _fraction_seq_apply(h, x)
    assert h.apply(EvSeq.of(1, F(-5, 8), tail=0)) == EvSeq.of(F(1, 3) - F(1, 4), F(-1, 7) + F(5, 16), tail=0)
    assert SeqHom.zero().apply(EvSeq.of(1, 2, tail=3)) == EvSeq.zero()


# ---------------------------------------------------------------------------
# The order-boundedness spot check on sequences.

def _sampled_inputs(monkeypatch, T, probe):
    from latring import homs

    drawn = []
    draw = homs.rand_between

    def recording(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(homs, "rand_between", recording)
    w = is_order_bounded(T, probe)
    assert w.spot_checked == len(drawn) == 25
    return drawn


def test_spot_check_draws_each_coordinate_of_the_support(monkeypatch):
    T = SeqHom.diag_plus_block(EvSeq.of(2, tail=F(1, 2)), ((0, 1, -3), (4, 0, 0), (0, F(1, 3), 0)))
    assert T.render()["kind"] == "diag_plus_finite"
    ys = _sampled_inputs(monkeypatch, T, EvSeq.constant(1))
    # Not constant over the block: off-diagonal entries meet independent coordinates.
    assert any(len({y.at(0), y.at(1), y.at(2)}) > 1 for y in ys)
    assert sum(len({y.at(0), y.at(1), y.at(2)}) == 3 for y in ys) > 15
    # Vectors keep drawing every coordinate.
    vs = _sampled_inputs(monkeypatch, T_EXAMPLE, FinVec.of(1, 1))
    assert any(v[0] != v[1] for v in vs)


class _BlockFault(SeqHom):
    """Correct on constant sequences; off by 10 (y_1 - y_0) at index 0 elsewhere."""

    def apply(self, x):
        y = super().apply(x)
        return y + EvSeq.of(10 * (x.at(1) - x.at(0)))


def test_spot_check_catches_a_fault_seen_only_off_the_constants():
    T = _BlockFault(EvSeq.of(1, 1, tail=1), ((0, F(1, 2)), (F(1, 2), 0)))
    assert T.apply(EvSeq.constant(1)) == SeqHom(T.diag, T.off).apply(EvSeq.constant(1))
    with pytest.raises(SoundnessBug):
        is_order_bounded(T, EvSeq.constant(1))


# ---------------------------------------------------------------------------
# Sequence operators on the matrix kernel against the Fraction formulas of
# their normal form.
#
# An operator is drawn as raw Fractions (a diagonal prefix and tail, and a
# block whose own diagonal folds into the diagonal), and the reference works
# on its n x n window: entry (i, j) of the operator on the first n
# coordinates, with the tail diagonal after it.  The normal form of a window
# is the full diagonal, trimmed of trailing tail copies, and the off-diagonal
# block cut to its last nonzero row or column.


def _window_of(prefix, tail, block, n):
    diag = list(prefix) + [tail] * (n - len(prefix))
    k = len(block)
    return [[(block[i][j] if i < k and j < k else F(0)) + (diag[i] if i == j else F(0)) for j in range(n)]
            for i in range(n)]


def _normal_form(window, tail):
    n = len(window)
    k = max([max(i, j) + 1 for i in range(n) for j in range(n) if i != j and window[i][j]], default=0)
    diag = [window[i][i] for i in range(n)]
    while diag and diag[-1] == tail:
        diag.pop()
    off = tuple(tuple(F(0) if i == j else window[i][j] for j in range(k)) for i in range(k))
    return tuple(diag), tail, off


def _grow(window, tail, n):
    """The window carried out to n coordinates, the new ones on the tail diagonal."""
    m = len(window)
    return [[window[i][j] if i < m and j < m else (tail if i == j else F(0)) for j in range(n)] for i in range(n)]


@st.composite
def seq_homs(draw):
    """(h, window, tail): an operator by either path and its reference window over 10 coordinates."""
    k = draw(st.integers(0, 5))
    block = draw(fraction_rows(k)) if draw(st.integers(0, 3)) else ((F(0),) * k,) * k
    prefix, tail = draw(st.lists(op_rats, max_size=6)), draw(op_rats)
    h = SeqHom.diag_plus_block(EvSeq(tuple(prefix), tail), block)
    # The other path: the same operator as the result of arithmetic.
    path = draw(st.sampled_from(["public", "scale", "sum"]))
    if path == "scale":
        h = h.scale(2).scale(F(1, 2))
    elif path == "sum":
        g = SeqHom.diag_plus_block(EvSeq.of(F(1, 3), tail=-1), ((0, 0, 1), (0, 0, 0), (F(2, 7), 0, 0)))
        h = (h + g) - g
    return h, _window_of(prefix, tail, block, 10), tail


def _same_seq_hom(result, window, tail):
    prefix, tail, off = _normal_form(window, tail)
    ref = SeqHom(EvSeq(prefix, tail), off)
    assert (result.diag.prefix, result.diag.tail, result.off) == (prefix, tail, off)
    assert result == ref and hash(result) == hash(ref)
    assert repr(result) == repr(ref) and result.render() == ref.render()
    assert result.block_size == len(off) and result.is_diagonal() == (not off)
    assert result.support_span() == max(len(off), len(prefix))


def _entrywise_window(f, *windows):
    return [[f(*entries) for entries in zip(*rows)] for rows in zip(*windows)]


@given(seq_homs(), seq_homs(), scale_factors)
def test_seq_hom_ops_match_fraction_formulas(first, second, q):
    (h, a, s), (g, b, t) = first, second
    _same_seq_hom(h, a, s)
    _same_seq_hom(h + g, _entrywise_window(lambda u, v: u + v, a, b), s + t)
    _same_seq_hom(h - g, _entrywise_window(lambda u, v: u - v, a, b), s - t)
    _same_seq_hom(-h, _entrywise_window(lambda u: -u, a), -s)
    _same_seq_hom(h.scale(q), _entrywise_window(lambda u: q * u, a), q * s)
    _same_seq_hom(h.positive_part(), _entrywise_window(lambda u: max(u, F(0)), a), max(s, F(0)))
    _same_seq_hom(h.entrywise_abs(), _entrywise_window(abs, a), abs(s))
    _same_seq_hom(hom_join(h, g), _entrywise_window(max, a, b), max(s, t))
    _same_seq_hom(hom_meet(h, g), _entrywise_window(min, a, b), min(s, t))
    assert h.is_zero() == (all(u == 0 for row in a for u in row) and s == 0)
    assert h.is_positive() == (all(u >= 0 for row in a for u in row) and s >= 0)
    assert h.finite_column_support() == (s == 0)
    assert (h == g) == (a == b and s == t)


@given(seq_homs(), st.integers(0, 12))
def test_truncation_is_the_window(case, extra):
    h, window, tail = case
    size = max(h.block_size, 1) + extra
    rows = _grow(window, tail, size) if size > len(window) else [row[:size] for row in window[:size]]
    T = truncation_matrix(h, size)
    assert T.rows == tuple(map(tuple, rows)) and T == MatrixHom(rows) and hash(T) == hash(MatrixHom(rows))
    if h.block_size > 1:
        with pytest.raises(InvalidElement):
            truncation_matrix(h, h.block_size - 1)


def _fraction_seq_bounds(window, tail, b):
    """The entrywise formula: per row the sum of |t_ij| b_j, with 0 * INF = 0, the tail last."""
    n = max(len(window), b.span() + 1)
    window = _grow(window, tail, n)
    head = []
    for row in window:
        acc = F(0)
        for j, t in enumerate(row):
            acc = _ext_add(acc, ext_mul(abs(t), b.at(j)))
        head.append(acc)
    return CoordBounds.sequence(head, ext_mul(abs(tail), b.tail))


seq_bounds = st.builds(
    CoordBounds.sequence,
    st.lists(st.one_of(st.just(INF), kernel_rats.map(abs)), max_size=12),
    st.one_of(st.just(INF), kernel_rats.map(abs)),
)


@given(seq_homs(), seq_bounds)
def test_seq_bounds_match_fraction_formula(case, b):
    h, window, tail = case
    assert h.propagate_bounds(b) == _fraction_seq_bounds(window, tail, b)


def test_a_diagonal_operator_holds_an_empty_block():
    d = EvSeq.of(F(1, 2), 2, tail=1)
    h = SeqHom.diag_plus_block(EvSeq.of(1, tail=0), ((0, 3), (-1, 0)))
    forms = (SeqHom.diagonal(d), SeqHom.diag_plus_block(d, ((0, 0), (0, 0))), h - h + SeqHom.diagonal(d))
    for g in forms + (pickle.loads(pickle.dumps(forms[0])),):
        assert g == forms[0] and hash(g) == hash(forms[0]) and g.render() == forms[0].render()
        assert g.block_size == 0 and g.is_diagonal() and g.off == ()
    assert forms[0].render() == {"kind": "diagonal", "prefix": ["1/2", "2"], "tail": "1"}
    assert forms[0].apply(EvSeq.of(4, 3, tail=-1)) == EvSeq.of(2, 6, tail=-1)


def test_seq_hom_parts_examples():
    # A block whose last row and column carry only the diagonal is cut back.
    h = SeqHom.diag_plus_block(EvSeq.of(1, 2, 3, tail=0), ((0, 5, 0), (0, 0, 0), (0, 0, 7)))
    assert h.block_size == 2 and h.off == ((0, 5), (0, 0)) and h.diag == EvSeq.of(1, 2, 10, tail=0)
    assert truncation_matrix(h, 2) == MatrixHom(((1, 5), (0, 2)))
    # A sum cancels the off-diagonal entry; the difference keeps the block.
    g = SeqHom.diag_plus_block(EvSeq.zero(), ((0, -5), (0, 0)))
    assert (h + g).is_diagonal() and h + g == SeqHom.diagonal(EvSeq.of(1, 2, 10, tail=0))
    assert (h + g).block_size == 0 and (h - g).off == ((0, 10), (0, 0))
    assert h.scale(0) == SeqHom.zero() and (h - h).is_zero()
    assert positive_part(SeqHom.diagonal(EvSeq.of(-1, tail=2))) == SeqHom.diagonal(EvSeq.of(0, tail=2))
    b = CoordBounds.sequence((F(1), INF), F(1, 2))
    assert h.propagate_bounds(b) == CoordBounds.sequence((INF, INF, F(5)), F(0))
    for clone in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert clone == h and hash(clone) == hash(h) and repr(clone) == repr(h)
    for name in ("diag", "off", "_block"):
        with pytest.raises(FrozenInstanceError):
            setattr(h, name, None)


# ---------------------------------------------------------------------------
# The vertex oracle against a brute force on plain Fractions.
#
# `sup_over_interval_oracle` runs on the same integer elements as the closed
# form it checks, so this reference keeps the check independent: it walks
# the 2^n vertices of [0, x] with Fraction arithmetic on the matrix entries.

def _brute_sup(rows, x):
    best = None
    for mask in itertools.product((0, 1), repeat=len(x)):
        y = [v if m else F(0) for v, m in zip(x, mask)]
        image = [sum((t * v for t, v in zip(row, y)), F(0)) for row in rows]
        best = image if best is None else [max(u, v) for u, v in zip(best, image)]
    return best


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 5))
    rows = draw(fraction_rows(n))
    x = draw(st.lists(kernel_rats.map(abs), min_size=n, max_size=n))
    T = MatrixHom(rows)
    return rows, x, (T.scale(3).scale(F(1, 3)) if draw(st.booleans()) else T)


@settings(max_examples=150)
@given(oracle_cases())
def test_oracle_and_closed_form_match_brute_force(case):
    rows, x, T = case
    expected = _brute_sup(rows, x)
    assert list(sup_over_interval_oracle(T, FinVec(x)).entries) == expected
    assert list(positive_part(T).apply(FinVec(x)).entries) == expected


def test_brute_force_examples():
    assert _brute_sup(((1, -2), (-3, 4)), [F(1), F(1)]) == [1, 4]
    assert _brute_sup(((F(-1, 2),),), [F(3)]) == [0]
