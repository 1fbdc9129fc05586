"""Neighborhood decisions against per-base reference formulas.

`Neighborhood.member`, `group_bound_multiplier` and the convergence
threshold (`alpha0_for`, `verify_at`, `witness_refutes`) all read a base
neighborhood through its radius function.  The reference functions below
decide the same questions with one formula per base, written out case by
case: a radius vector for boxes, one radius on a finite coordinate set for
product neighborhoods, one radius on every coordinate for sup-norm balls,
and exactly {0} for the discrete base.  The examples cover all four bases,
free product coordinates (whose bound is INF) and the discrete {0}.  The cr
verdict on closed-form and table nets is checked against its definition: the
eventual term equals the limit.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from latring import (
    EvSeq,
    FinVec,
    FiniteSet,
    HomNet,
    ImageSet,
    InvalidElement,
    MatrixHom,
    NbhdSet,
    Neighborhood,
    SeqHom,
    SolidHull,
    Space,
    TopologyId,
    ZInt,
    converges,
    coordinate_bounds,
    cr_converges,
    group_bound_multiplier,
)
from latring.extended import ext_le, is_inf
from latring.homspaces import vw_box

PRODUCT = TopologyId.EVSEQ_PRODUCT
SUPNORM = TopologyId.EVSEQ_SUPNORM

# ---------------------------------------------------------------------------
# Reference formulas, one branch per base.


def ref_member(U: Neighborhood, x) -> bool:
    if U.topology is TopologyId.QN_BOX:
        if type(x) is not FinVec or x.dim != len(U.radii):
            raise InvalidElement("wrong carrier")
        return all(abs(a) <= r for a, r in zip(x.entries, U.radii))
    if U.topology in (PRODUCT, SUPNORM):
        if not isinstance(x, EvSeq):
            raise InvalidElement("wrong carrier")
        if U.topology is PRODUCT:
            return all(abs(x.at(i)) <= U.radius for i in U.coords)
        return all(abs(v) <= U.radius for v in x.prefix) and abs(x.tail) <= U.radius
    if not isinstance(x, ZInt):
        raise InvalidElement("wrong carrier")
    return int(x) == 0


def ref_multiplier(b, U: Neighborhood):
    if U.topology is TopologyId.Z_DISCRETE_TOP:
        return 1 if b.overall_sup() == 0 else None
    if U.topology is TopologyId.QN_BOX:
        pairs = [(b.at(i), r) for i, r in enumerate(U.radii)]
    elif U.topology is PRODUCT:
        pairs = [(b.at(i), U.radius) for i in U.coords]
    else:
        pairs = [(b.overall_sup(), U.radius)]
    if any(is_inf(v) for v, _ in pairs):
        return None
    return max([1] + [math.ceil(v / r) for v, r in pairs])


def ref_within(b, V: Neighborhood) -> bool:
    if V.topology is TopologyId.QN_BOX:
        return all(ext_le(b.at(j), r) for j, r in enumerate(V.radii))
    if V.topology is PRODUCT:
        return all(ext_le(b.at(j), V.radius) for j in V.coords)
    if V.topology is SUPNORM:
        return ext_le(b.overall_sup(), V.radius)
    return b.overall_sup() == 0


def ref_alpha0(decay_bounds, target: Neighborhood) -> int:
    if target.topology is TopologyId.QN_BOX:
        pairs = [(decay_bounds.at(j), r) for j, r in enumerate(target.radii)]
    elif target.topology is PRODUCT:
        pairs = [(decay_bounds.at(j), target.radius) for j in target.coords]
    else:
        pairs = [(decay_bounds.overall_sup(), target.radius)]
    assert not any(is_inf(v) for v, _ in pairs)
    return max([1] + [math.ceil(v / r) for v, r in pairs if v != 0])


# ---------------------------------------------------------------------------
# Strategies.

rats = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
radii = st.builds(F, st.integers(1, 6), st.integers(1, 4))
coord_sets = st.frozensets(st.integers(0, 7), max_size=4)


def boxes(dim):
    return st.lists(radii, min_size=dim, max_size=dim).map(Neighborhood.box)


def seq_nbhds(topology):
    if topology is PRODUCT:
        return st.builds(Neighborhood.product, coord_sets, radii)
    return st.builds(Neighborhood.sup_ball, radii)


evseqs = st.builds(lambda prefix, tail: EvSeq(tuple(prefix), tail), st.lists(rats, max_size=9), rats)


def finvecs(dim):
    return st.lists(rats, min_size=dim, max_size=dim).map(lambda xs: FinVec(tuple(xs)))


def matrices(dim):
    return st.lists(st.lists(rats, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(MatrixHom)


# A diagonal that either vanishes from some index on or never does.
diagonals = st.builds(
    lambda prefix, tail: SeqHom.diagonal(EvSeq(tuple(prefix), tail)),
    st.lists(rats, max_size=6),
    st.sampled_from([F(0), F(0), F(1, 2), F(-3)]),
)
blocks = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(rats, min_size=k, max_size=k), min_size=k, max_size=k)
)
seq_homs = st.one_of(diagonals, st.builds(lambda D, block: SeqHom.diag_plus_block(D.diag, block), diagonals, blocks))
any_element = st.one_of(
    st.integers(1, 3).flatmap(finvecs), evseqs, st.integers(-2, 2).map(ZInt), st.integers(-2, 2), st.just(True)
)


@st.composite
def nbhd_and_element(draw):
    kind = draw(st.sampled_from(["box", "product", "supnorm", "discrete"]))
    if kind == "box":
        dim = draw(st.integers(1, 4))
        U, elements = draw(boxes(dim)), finvecs(dim)
    elif kind == "discrete":
        U, elements = Neighborhood.discrete_zero(), st.sampled_from([0, 0, 1, -2]).map(ZInt)
    else:
        U, elements = draw(seq_nbhds(PRODUCT if kind == "product" else SUPNORM)), evseqs
    # One example in five tries an element of some other carrier.
    x = draw(any_element if draw(st.integers(0, 4)) == 0 else elements)
    return U, x


@st.composite
def set_and_nbhd(draw):
    """A set of a carrier and a base neighborhood of that carrier.

    On sequences the set may be a diagonal image of a product neighborhood,
    whose free coordinates carry an INF bound unless the coefficient is 0.
    """
    kind = draw(st.sampled_from(["q", "seq", "z"]))
    if kind == "q":
        dim = draw(st.integers(1, 3))
        space = Space.qn(dim)
        U = draw(boxes(dim))
        S = draw(
            st.one_of(
                st.lists(finvecs(dim), min_size=1, max_size=3).map(lambda ys: SolidHull(space, tuple(ys))),
                st.builds(lambda T, B: ImageSet(space, T, NbhdSet(space, B)), matrices(dim), boxes(dim)),
            )
        )
        return S, U
    if kind == "z":
        space = Space.z_discrete()
        S = draw(st.lists(st.sampled_from([0, 0, 1, -3]), min_size=1, max_size=3).map(
            lambda xs: FiniteSet(space, tuple(map(ZInt, xs)))))
        return S, Neighborhood.discrete_zero()
    space = Space.evseq(PRODUCT)
    U = draw(seq_nbhds(draw(st.sampled_from([PRODUCT, SUPNORM]))))
    S = draw(
        st.one_of(
            st.lists(evseqs, min_size=1, max_size=3).map(lambda ys: SolidHull(space, tuple(ys))),
            st.builds(lambda T, B: ImageSet(space, T, NbhdSet(space, B)), diagonals, seq_nbhds(PRODUCT)),
        )
    )
    return S, U


@st.composite
def certificates(draw):
    """A certificate for a closed-form net, and targets (V, W) from its codomain base."""
    mode = draw(st.sampled_from(["nr", "br", "cr"]))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        dom = cod = Space.qn(dim)
        base, decay = draw(matrices(dim)), draw(matrices(dim))
        limit = draw(st.sampled_from([base, MatrixHom.zero(dim)]))
        U = draw(boxes(dim))
        B = draw(st.lists(finvecs(dim), min_size=1, max_size=3).map(lambda ys: SolidHull(dom, tuple(ys))))
        targets = boxes(dim)
    else:
        dom = Space.evseq(draw(st.sampled_from([PRODUCT, SUPNORM])))
        cod = dom if mode == "cr" else Space.evseq(draw(st.sampled_from([dom.topology, SUPNORM])))
        base, decay = draw(diagonals), draw(diagonals)
        limit = draw(st.sampled_from([base, SeqHom.zero()]))
        U = draw(seq_nbhds(dom.topology))
        B = draw(st.lists(evseqs, min_size=1, max_size=3).map(lambda ys: SolidHull(dom, tuple(ys))))
        targets = seq_nbhds(cod.topology)
    net = HomNet.closed(dom, cod, base, decay, target=limit)
    cert = converges(net, limit, mode, {"nr": NbhdSet(dom, U), "br": B, "cr": None}[mode])
    V = draw(targets)
    W = draw(targets) if mode == "cr" else None
    return cert, V, W


@st.composite
def endomorphism_nets(draw):
    """A closed-form or table net of endomorphisms under pointwise products, and a limit."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        space, homs = Space.qn(dim), matrices(dim)
    else:
        space, homs = Space.evseq(draw(st.sampled_from([PRODUCT, SUPNORM]))), seq_homs
    if draw(st.booleans()):
        net = HomNet.closed(space, space, draw(homs), draw(homs))
    else:
        net = HomNet.table(space, space, draw(st.lists(homs, min_size=1, max_size=4)))
    eventual = net.eventual_term()
    return net, draw(st.sampled_from([eventual, eventual.scale(0)]) | homs)


# ---------------------------------------------------------------------------
# Agreement.


def _outcome(f, *args):
    try:
        return f(*args)
    except InvalidElement:
        return "InvalidElement"


@settings(max_examples=400)
@given(nbhd_and_element())
def test_member_agrees_with_reference(case):
    U, x = case
    assert _outcome(U.member, x) == _outcome(ref_member, U, x)


@settings(max_examples=400)
@given(set_and_nbhd())
def test_group_bound_multiplier_agrees_with_reference(case):
    S, U = case
    assert group_bound_multiplier(S, U) == ref_multiplier(coordinate_bounds(S), U)


@settings(max_examples=300)
@given(certificates())
def test_threshold_and_recheck_agree_with_reference(case):
    cert, V, W = case
    if not cert.convergent:
        residual = cert.residual_bounds
        if residual.overall_sup() != 0:
            assert cert.witness_refutes() == (not ref_within(residual, cert.witness))
        return
    if cert.mode == "cr":
        target, region = vw_box(V, W), cert.choose_U(W).bounds()
    else:
        target, region = V, cert.region_bounds
    alpha0 = cert.alpha0_for(V, W)
    assert alpha0 == ref_alpha0(cert.net.decay.propagate_bounds(region), target)
    for alpha in (1, alpha0, alpha0 + 3):
        img = (cert.net.term(alpha) - cert.limit).propagate_bounds(region)
        assert cert.verify_at(alpha, V, W) == ref_within(img, target)


@settings(max_examples=300)
@given(endomorphism_nets())
def test_cr_verdict_is_the_eventual_difference_vanishing(case):
    """cr converges exactly when the eventual term is the limit, and a
    negative certificate's witness refutes it."""
    net, limit = case
    cert = cr_converges(net, limit)
    assert cert.convergent == (net.eventual_term() - limit).is_zero()
    if not cert.convergent:
        assert cert.witness_refutes()
