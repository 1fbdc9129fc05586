"""Library calls that no command makes: each malformed call is refused with
its own exception and message, so a refusal that stops firing is seen."""

import pickle

import pytest

from latring.elements import EvSeq, FinVec, ZInt
from latring.errors import InvalidArgument, InvalidElement
from latring.extended import CoordBounds
from latring.homs import ConeMap, MatrixHom, SeqHom, directed_sup, is_order_bounded, sup_over_interval_oracle
from latring.homspaces import HomNet, vw_box
from latring.spaces import Space, matrix2_mul
from latring.topology import Neighborhood

Q1, Q2 = Space.qn(1), Space.qn(2)
I1, I2, S = MatrixHom.identity(1), MatrixHom.identity(2), SeqHom.identity()

REFUSALS = {
    "matrix-empty": (lambda: MatrixHom([]), InvalidElement, "matrix homomorphisms must be square and nonempty"),
    "matrix-apply-dim": (lambda: I2.apply(FinVec.of(1)), InvalidElement, "expected a 2-dim FinVec, got FinVec(1)"),
    "matrix-sequence-bounds": (
        lambda: I2.propagate_bounds(CoordBounds.sequence([1], 1)),
        InvalidElement, "matrix homomorphisms act on finite-dimensional bounds",
    ),
    "seq-diag-not-evseq": (lambda: SeqHom(FinVec.of(1)), InvalidElement, "diagonal coefficients must form an EvSeq"),
    "seq-block-not-square": (lambda: SeqHom(EvSeq.of(1), [[1, 2]]), InvalidElement, "finite block must be square"),
    "seq-apply-finvec": (lambda: S.apply(FinVec.of(1)), InvalidElement, "expected an EvSeq, got FinVec(1)"),
    "seq-finite-bounds": (
        lambda: S.propagate_bounds(CoordBounds.finite_dim([1])),
        InvalidElement, "sequence homomorphisms act on sequence bounds",
    ),
    "matrix-add-dims": (
        lambda: I2 + I1, InvalidElement, "expected a 2x2 matrix homomorphism, got MatrixHom([['1']])",
    ),
    "seq-add-matrix": (lambda: S + I1, InvalidElement, "expected a sequence homomorphism, got MatrixHom([['1']])"),
    "oracle-seq-hom": (
        lambda: sup_over_interval_oracle(S, FinVec.of(1)),
        InvalidElement, "the vertex oracle takes a matrix homomorphism",
    ),
    "oracle-negative-probe": (
        lambda: sup_over_interval_oracle(I1, FinVec.of(-1)), InvalidElement, "oracle probe must be positive",
    ),
    "directed-sup-empty": (lambda: directed_sup([], I1), InvalidElement, "directed supremum of an empty family"),
    "cone-key-negative": (
        lambda: ConeMap(Q1, None, ((FinVec.of(-1), FinVec.of(0)),)),
        InvalidElement, "cone map table key FinVec(-1) is not positive",
    ),
    "cone-value-negative": (
        lambda: ConeMap(Q1, I1, ()).value(FinVec.of(-1)),
        InvalidElement, "cone maps are only defined on positive elements, got FinVec(-1)",
    ),
    "cone-value-missing": (
        lambda: ConeMap(Q1, None, ((FinVec.of(1), FinVec.of(1)),)).value(FinVec.of(2)),
        InvalidElement, "cone map has no value at FinVec(2)",
    ),
    "order-bounded-negative-probe": (
        lambda: is_order_bounded(I1, FinVec.of(-1)), InvalidElement, "probe must be positive",
    ),
    "net-neither-form": (
        lambda: HomNet(Q1, Q1, None, None, None, None),
        InvalidElement, "a net is either closed-form (base, decay) or a table of terms",
    ),
    "net-term-zero": (lambda: HomNet.constant(Q1, Q1, I1).term(0), InvalidArgument, "net indices start at 1"),
    "net-diff-spaces": (
        lambda: HomNet.constant(Q1, Q1, I1).diff(HomNet.constant(Q2, Q2, I2)),
        InvalidElement, "nets live on different space pairs",
    ),
    "vw-box-bases": (
        lambda: vw_box(Neighborhood.box([1]), Neighborhood.sup_ball(1)),
        InvalidElement, "product of neighborhoods from different bases",
    ),
    "evseq-negative-index": (lambda: EvSeq.of(1).at(-1), InvalidElement, "sequence indices start at 0"),
    "evseq-plus-finvec": (lambda: EvSeq.of(1) + FinVec.of(1), InvalidElement, "expected EvSeq, got FinVec(1)"),
    "bounds-index-outside": (
        lambda: CoordBounds.finite_dim([1, 2]).at(5), IndexError, "coordinate 5 outside a 2-dim bound",
    ),
    "bounds-dims": (
        lambda: CoordBounds.finite_dim([1]).combine(CoordBounds.finite_dim([1, 2]), max),
        IndexError, "bounds of different carriers or dimensions",
    ),
    "matrix2-dims": (
        lambda: matrix2_mul(FinVec.of(1, 2), FinVec.of(1, 2, 3, 4)),
        InvalidElement, "flattened 2x2 matrices need dim 4",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_malformed_library_call_is_refused(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message


def test_elements_of_different_carriers_are_never_equal():
    assert FinVec.of(1) != EvSeq.constant(1)
    assert not FinVec.of(1) == EvSeq.constant(1)


def test_an_integer_survives_pickling():
    x = pickle.loads(pickle.dumps(ZInt(-7)))
    assert type(x) is ZInt and x == ZInt(-7) and int(x) == -7
