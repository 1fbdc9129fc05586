"""Classification labels, convergence certificates, uniqueness, lattice continuity."""

from fractions import Fraction as F

import pytest

from latring import (
    EvSeq,
    FinVec,
    Interval,
    InvalidArgument,
    InvalidElement,
    MatrixHom,
    Multiplication,
    NbhdSet,
    Neighborhood,
    NotBounded,
    SeqHom,
    Space,
    TopologyId,
    VacuousProduct,
    ZInt,
    classify,
    br_converges,
    converges,
    coordinate_bounds,
    cr_converges,
    identity_on,
    lattice_continuity_audit,
    limit_uniqueness_audit,
    nr_converges,
    positive_part,
)
from latring.homspaces import HomNet, vw_box

PROD = Space.evseq(TopologyId.EVSEQ_PRODUCT)
PROD_ZERO = Space.evseq(TopologyId.EVSEQ_PRODUCT, Multiplication.ZERO)
SUP = Space.evseq(TopologyId.EVSEQ_SUPNORM)
Q3 = Space.qn(3)


# ---------------------------------------------------------------------------
# Classification.

def test_classify_identity_product_topology():
    label = classify(identity_on(PROD), PROD, PROD)
    f = label.flags()
    assert f["order_bounded"] and f["continuous"]
    assert not f["nr_ring"] and not f["nr_group"]
    assert f["br_ring"] and f["br_group"]
    assert label.nr.group.refuting == Neighborhood.product({1}, 1)


def test_classify_identity_zero_multiplication():
    label = classify(identity_on(PROD_ZERO), PROD_ZERO, PROD_ZERO)
    f = label.flags()
    assert f["order_bounded"]
    assert f["nr_ring"] and f["nr_ring_vacuous"]
    assert f["br_ring"] and f["br_ring_vacuous"]
    assert not f["nr_group"] and not f["br_group"]
    assert f["continuous"]


def test_classify_identity_product_to_supnorm():
    label = classify(identity_on(PROD), PROD, SUP)
    f = label.flags()
    assert f["order_bounded"] and not f["continuous"]
    assert label.continuity_witness == Neighborhood.sup_ball(1)
    assert not f["nr_group"] and f["br_group"]


def test_classify_bounded_diagonal_on_supnorm_all_true():
    label = classify(SeqHom.diagonal(EvSeq.of(3, -2, tail=F(1, 2))), SUP, SUP)
    f = label.flags()
    assert all((f["order_bounded"], f["nr_ring"], f["nr_group"], f["br_ring"], f["br_group"], f["continuous"]))


def test_classify_finitely_supported_diagonal_on_product_is_nr():
    finite = SeqHom.diagonal(EvSeq.of(2, 0, 5, tail=0))
    label = classify(finite, PROD, PROD)
    assert label.nr.group.holds and label.nr.ring.holds
    assert label.nr.group.via.coords == frozenset({0, 1, 2})


def test_classify_identity_same_topology_always_continuous():
    for space in (PROD, SUP, Q3, Space.z_discrete()):
        label = classify(identity_on(space), space, space)
        assert label.continuous


def test_positive_part_keeps_the_nr_witness():
    finite = SeqHom.diag_plus_block(EvSeq.of(-2, 1, tail=0), ((F(0), F(-3)), (F(4), F(0))))
    label = classify(finite, PROD, PROD)
    assert label.nr.group.holds
    U = label.nr.group.via
    # beta-propagation: the positive part's image over the same U stays bounded.
    pos_bounds = positive_part(finite).propagate_bounds(U.bounds)
    assert pos_bounds.first_infinite_index() is None


def test_classify_identity_on_discrete_integers():
    zd = Space.z_discrete()
    label = classify(identity_on(zd), zd, zd)
    f = label.flags()
    # {0} is a base neighborhood, so images of it are bounded in every sense,
    # yet nonzero bounded sets are never inside any multiple of {0}.
    assert f["order_bounded"] and f["nr_ring"] and f["nr_group"] and f["continuous"]
    assert f["br_ring"] and not f["br_group"]
    assert (label.order_witness.lo, label.order_witness.hi) == (ZInt(-1), ZInt(1))


def test_classify_refuses_a_hom_on_the_integers_other_than_the_identity():
    zd = Space.z_discrete()
    for T in (MatrixHom(((2,),)), MatrixHom.identity(2), SeqHom.identity()):
        with pytest.raises(InvalidElement, match="does not act on the integers"):
            classify(T, zd, zd)


def test_classify_matrix_on_qn():
    label = classify(MatrixHom(((1, -2, 0), (0, 3, 1), (-1, 0, 2))), Q3, Q3)
    f = label.flags()
    assert all((f["order_bounded"], f["nr_ring"], f["nr_group"], f["br_ring"], f["br_group"], f["continuous"]))


def test_classification_witnesses_recheck():
    """Every recorded witness re-derives under the bound-function deciders."""
    from latring.topology import bounds_group_bounded, bounds_ring_bounded

    zoo = [
        (identity_on(PROD), PROD, PROD),
        (identity_on(PROD_ZERO), PROD_ZERO, PROD_ZERO),
        (identity_on(PROD), PROD, SUP),
        (SeqHom.diagonal(EvSeq.of(3, -2, tail=F(1, 2))), SUP, SUP),
        (SeqHom.diagonal(EvSeq.of(2, 0, 5, tail=0)), PROD, PROD),
        (MatrixHom(((1, -2), (0, 3))), Space.qn(2), Space.qn(2)),
    ]
    for T, dom, cod in zoo:
        label = classify(T, dom, cod)
        for reading, verdict in (("ring", label.nr.ring), ("group", label.nr.group)):
            if verdict.holds and not verdict.vacuous:
                img = T.propagate_bounds(verdict.via.bounds)
                if reading == "ring":
                    assert bounds_ring_bounded(img, cod.topology, cod.multiplication).holds
                else:
                    assert bounds_group_bounded(img, cod.topology).holds
            elif not verdict.holds:
                img = T.propagate_bounds(verdict.via.bounds)
                if reading == "ring":
                    assert not bounds_ring_bounded(img, cod.topology, cod.multiplication).holds
                else:
                    assert not bounds_group_bounded(img, cod.topology).holds


def test_case_b_witness_demonstrated_by_elements():
    """The bad set's members escape every multiple of the refuting neighborhood."""
    from latring import set_contains

    label = classify(identity_on(PROD_ZERO), PROD_ZERO, PROD_ZERO)
    bad = label.br.group.bad_set
    W = label.br.group.refuting
    assert W == Neighborhood.product({1}, 1)
    for n in range(1, 21):
        x = EvSeq.of(0, F(n + 1), tail=0)
        assert set_contains(bad, x)                  # x lies in the bounded set
        assert not W.member(x.scale(F(1, n)))  # yet x is not in n*W


# ---------------------------------------------------------------------------
# Convergence.

def test_nr_alpha0_solves_radius_inequality():
    net = HomNet.closed(SUP, SUP, SeqHom.zero(), SeqHom.identity(), target=SeqHom.zero())
    cert = nr_converges(net, SeqHom.zero(), Neighborhood.sup_ball(1))
    assert cert.convergent
    import math

    for eps in (F(1), F(1, 2), F(1, 7), F(3, 5)):
        alpha0 = cert.alpha0_for(Neighborhood.sup_ball(eps))
        assert alpha0 == max(1, math.ceil(1 / eps))
        # Independent check: the threshold is the least index that fits.
        assert cert.verify_at(alpha0, Neighborhood.sup_ball(eps))
        if alpha0 > 1:
            assert not cert.verify_at(alpha0 - 1, Neighborhood.sup_ball(eps))


def test_nr_constant_net_threshold_is_one():
    T = SeqHom.diagonal(EvSeq.of(4, tail=2))
    net = HomNet.constant(SUP, SUP, T)
    cert = nr_converges(net, T, Neighborhood.sup_ball(1))
    assert cert.convergent
    assert cert.alpha0_for(Neighborhood.sup_ball(F(1, 100))) == 1


def test_nr_constant_identity_not_convergent_on_product():
    net = HomNet.constant(PROD, PROD, SeqHom.identity())
    cert = nr_converges(net, SeqHom.zero(), Neighborhood.product({0}, 1))
    assert not cert.convergent
    assert cert.witness == Neighborhood.product({1}, 1)
    assert not cert.verify_at(50, cert.witness)
    assert cert.witness_refutes()


def test_witness_refutes_survives_transient_zero_crossings():
    # The difference dips through zero at one index but does not vanish in the
    # limit; the witness recheck must not be fooled by the crossing.
    base = SeqHom.diagonal(EvSeq.constant(1))
    decay = SeqHom.diagonal(EvSeq.constant(-64))
    net = HomNet.closed(SUP, SUP, base, decay)
    cert = nr_converges(net, SeqHom.zero(), Neighborhood.sup_ball(1))
    assert not cert.convergent
    assert cert.verify_at(64, cert.witness)  # the crossing: 1 - 64/64 = 0
    assert cert.witness_refutes()            # but the limit still escapes


def test_nr_wrong_base_rejected():
    from latring import InvalidNeighborhood

    net = HomNet.constant(PROD, PROD, SeqHom.identity())
    with pytest.raises(InvalidNeighborhood):
        nr_converges(net, SeqHom.identity(), Neighborhood.sup_ball(1))


def test_br_matrix_net_row_sum_threshold():
    T = MatrixHom(((1, -2, 0), (0, 3, 1), (-1, 0, 2)))
    net = HomNet.closed(Q3, Q3, MatrixHom.zero(3), T, target=MatrixHom.zero(3))
    B = Interval(Q3, -FinVec.constant(3, 2), FinVec.constant(3, 2))
    cert = br_converges(net, MatrixHom.zero(3), B)
    assert cert.convergent
    V = Neighborhood.box((1, 1, 1))
    # Row-sum bound of |T| on B: rows give 6, 8, 6; threshold is ceil(8/1).
    assert cert.alpha0_for(V) == 8
    assert cert.verify_at(8, V) and not cert.verify_at(7, V)


def test_br_constant_net_threshold_is_one():
    T = MatrixHom(((2, -1), (0, 3)))
    q2 = Space.qn(2)
    B = Interval(q2, -FinVec.constant(2, 5), FinVec.constant(2, 5))
    cert = br_converges(HomNet.constant(q2, q2, T), T, B)
    assert cert.convergent
    assert cert.alpha0_for(Neighborhood.box((F(1, 9), F(1, 9)))) == 1


def test_br_requires_bounded_set():
    net = HomNet.constant(PROD, PROD, SeqHom.identity())
    with pytest.raises(NotBounded):
        br_converges(net, SeqHom.identity(), NbhdSet(PROD, Neighborhood.product({0}, 1)))


def test_br_non_vanishing_difference_witness():
    T = SeqHom.diagonal(EvSeq.of(1, tail=0))
    net = HomNet.constant(SUP, SUP, T)
    B = Interval(SUP, -EvSeq.constant(1), EvSeq.constant(1))
    cert = br_converges(net, SeqHom.zero(), B)
    assert not cert.convergent
    assert cert.witness is not None
    assert not cert.verify_at(99, cert.witness)


def test_cr_alpha0_uses_radius_product():
    net = HomNet.closed(SUP, SUP, SeqHom.zero(), SeqHom.identity(), target=SeqHom.zero())
    cert = cr_converges(net, SeqHom.zero())
    assert cert.convergent
    V, W = Neighborhood.sup_ball(F(1, 2)), Neighborhood.sup_ball(F(1, 3))
    assert cert.alpha0_for(V, W) == 6  # ceil(1 / (1/2 * 1/3))
    assert cert.verify_at(6, V, W) and not cert.verify_at(5, V, W)


def test_cr_constant_net_and_divergent_identity():
    T = SeqHom.diagonal(EvSeq.of(2, tail=1))
    assert cr_converges(HomNet.constant(SUP, SUP, T), T).alpha0_for(
        Neighborhood.sup_ball(1), Neighborhood.sup_ball(1)
    ) == 1
    cert = cr_converges(HomNet.constant(PROD, PROD, SeqHom.identity()), SeqHom.zero())
    assert not cert.convergent and cert.witness is not None


def test_cr_product_topology_picks_u_per_w():
    net = HomNet.closed(PROD, PROD, SeqHom.zero(), SeqHom.identity(), target=SeqHom.zero())
    cert = cr_converges(net, SeqHom.zero())
    assert cert.convergent
    W = Neighborhood.product({0, 2}, F(1, 2))
    U = cert.choose_U(W)
    assert U.coords >= {0, 2}
    V = Neighborhood.product({0}, F(1, 3))
    alpha0 = cert.alpha0_for(V, W)
    assert alpha0 == 6  # decay bound 1 against radius (1/3)*(1/2)
    assert cert.verify_at(alpha0, V, W)


def test_cr_table_net_with_a_block_on_product_topology():
    # The table's decay support comes from every term's difference, block
    # entries included: row 2 of the block reaches back to coordinate 0.
    block = SeqHom.diag_plus_block(EvSeq.of(1, tail=0), ((0, 2, 0), (0, 0, 0), (3, 0, 0)))
    steps = [block, SeqHom.diagonal(EvSeq.of(0, 0, F(1, 4), tail=0)), SeqHom.zero()]
    net = HomNet.table(PROD, PROD, steps, target=SeqHom.zero())
    cert = cr_converges(net, SeqHom.zero())
    assert cert.convergent
    W = Neighborhood.product({2, 5}, F(1, 2))
    assert cert.choose_U(W).coords == frozenset({0, 2, 5})
    assert cert.alpha0_for(Neighborhood.product({2}, F(1, 2)), W) == 2   # 1/4 <= 1/2 * 1/2
    assert cert.alpha0_for(Neighborhood.product({2}, F(1, 3)), W) == 3   # 1/4 > 1/3 * 1/2
    assert not cert.verify_at(1, Neighborhood.product({2}, 1), W)       # the block puts 3 at coordinate 2


def test_cr_zero_multiplication_is_vacuous():
    net = HomNet.constant(PROD_ZERO, PROD_ZERO, SeqHom.identity())
    with pytest.raises(VacuousProduct):
        cr_converges(net, SeqHom.identity())


def test_cr_refuses_a_net_between_different_spaces():
    # Same carrier, different topology: V*W needs one base on both sides.
    net = HomNet.constant(PROD, SUP, SeqHom.identity())
    with pytest.raises(InvalidArgument):
        cr_converges(net, SeqHom.identity())


def test_nets_refuse_homs_that_do_not_act_on_their_spaces():
    M, I3 = MatrixHom([[1, 0], [0, 1]]), MatrixHom.identity(3)
    with pytest.raises(InvalidElement, match="does not act on sequences"):
        HomNet.closed(PROD, PROD, M, M, target=M)
    with pytest.raises(InvalidElement, match="does not act on Q\\^3"):
        HomNet.table(Q3, Q3, [M, M])
    for build in (
        lambda: HomNet.closed(Q3, Q3, I3, I3, target=M),
        lambda: HomNet.closed(Q3, Q3, I3, M),
        lambda: HomNet.table(Q3, Q3, [I3, M, I3]),
        lambda: HomNet.table(PROD, SUP, [SeqHom.identity(), I3]),
        lambda: HomNet.constant(Q3, Space.qn(2), I3),
    ):
        with pytest.raises(InvalidElement, match="does not act on"):
            build()
    # On the integers the refusal names the carrier before any hom.
    Z = Space.z_discrete()
    with pytest.raises(InvalidElement, match="nets are shipped for the matrix and sequence forms only"):
        HomNet.closed(Z, Z, M, M)


def test_table_net_differences():
    one, zero = SeqHom.identity(), SeqHom.zero()
    a = HomNet.table(SUP, SUP, [one, one.scale(F(1, 2)), zero])
    b = HomNet.table(SUP, SUP, [zero, one.scale(F(1, 4)), zero])
    d = a.diff(b)
    assert not d.is_closed_form and (d.domain, d.codomain) == (SUP, SUP)
    assert d.terms == (one, one.scale(F(1, 4)), zero) and d.term(9) == zero
    with pytest.raises(InvalidElement, match="table nets of different lengths"):
        a.diff(HomNet.table(SUP, SUP, [one, zero]))
    with pytest.raises(InvalidElement, match="cannot mix closed-form and table nets"):
        a.diff(HomNet.constant(SUP, SUP, zero))
    with pytest.raises(InvalidElement, match="cannot mix closed-form and table nets"):
        HomNet.constant(SUP, SUP, zero).diff(a)


def _mode_nets():
    """A convergent and a divergent Q^3 net with each mode's region."""
    base = MatrixHom(((1, 0, 2), (0, -1, 0), (3, 0, 1)))
    decay = MatrixHom(((0, 1, 0), (2, 0, 0), (0, 0, -3)))
    nets = (HomNet.closed(Q3, Q3, base, decay, target=base), HomNet.constant(Q3, Q3, base + decay))
    U = Neighborhood.box((1, 1, 1))
    B = Interval(Q3, -FinVec.constant(3, 1), FinVec.constant(3, 1))
    return base, nets, U, B


def test_converges_is_the_direct_decider_for_each_mode():
    base, nets, U, B = _mode_nets()
    W = Neighborhood.box((F(1, 2), 1, 2))
    for net in nets:
        nr = converges(net, base, "nr", NbhdSet(Q3, U))
        br = converges(net, base, "br", B)
        cr = converges(net, base, "cr")
        assert nr == nr_converges(net, base, U)
        assert br == br_converges(net, base, B)
        assert cr == cr_converges(net, base)
    assert nr.frame(U, W) == (NbhdSet(Q3, U), U.bounds, U)
    assert br.frame(U, W) == (B, coordinate_bounds(B), U)
    assert cr.frame(U, W) == (NbhdSet(Q3, cr.choose_U(W)), cr.choose_U(W).bounds, vw_box(U, W))


def test_recheck_is_the_threshold_and_seven_past_it():
    base, (net, _), U, B = _mode_nets()
    W = Neighborhood.box((F(1, 2), 1, 2))
    for cert in (nr_converges(net, base, U), br_converges(net, base, B), cr_converges(net, base)):
        alpha0 = cert.alpha0_for(U, W)
        assert cert.recheck(U, W) == {alpha: cert.verify_at(alpha, U, W) for alpha in (alpha0, alpha0 + 7)}
        assert list(cert.recheck(U, W)) == [alpha0, alpha0 + 7]


def test_converges_refuses_unknown_modes_and_misplaced_regions():
    base, (net, _), U, B = _mode_nets()
    for mode, region in (
        ("xr", None),
        ("cr", NbhdSet(Q3, U)),
        ("cr", B),
        ("nr", None),
        ("nr", B),
        ("br", None),
    ):
        with pytest.raises(InvalidArgument):
            converges(net, base, mode, region)


def test_vw_box_product_intersects_coords():
    V = Neighborhood.product({0, 1}, F(1, 2))
    W = Neighborhood.product({1, 2}, F(1, 3))
    box = vw_box(V, W)
    assert box.coords == frozenset({1}) and box.radius == F(1, 6)


def test_table_net_thresholds():
    steps = [SeqHom.diagonal(EvSeq.constant(F(1, k))) for k in (1, 1, 2, 4, 8)] + [SeqHom.zero()]
    net = HomNet.table(SUP, SUP, steps, target=SeqHom.zero())
    cert = nr_converges(net, SeqHom.zero(), Neighborhood.sup_ball(1))
    assert cert.convergent
    assert cert.alpha0_for(Neighborhood.sup_ball(F(1, 3))) == 4  # first index with 1/4 <= 1/3
    assert cert.alpha0_for(Neighborhood.sup_ball(2)) == 1
    assert cert.verify_at(4, Neighborhood.sup_ball(F(1, 3)))


@pytest.mark.parametrize("n, qualifying", [(70, 70), (200, 200), (150, 100)])
def test_table_alpha0_is_the_least_qualifying_index(n, qualifying):
    # The first n - qualifying entries stay at sup distance 1 from the limit; the rest equal it.
    limit = SeqHom.zero()
    net = HomNet.table(SUP, SUP, [SeqHom.identity()] * (n - qualifying) + [limit] * qualifying, target=limit)
    cert = nr_converges(net, limit, Neighborhood.sup_ball(1))
    assert cert.alpha0_for(Neighborhood.sup_ball(F(1, 2))) == n - qualifying + 1


# ---------------------------------------------------------------------------
# Limit uniqueness.

def test_limit_uniqueness_canonical_forms():
    base = SeqHom.diagonal(EvSeq.of(1, tail=F(1, 2)))
    net = HomNet.closed(SUP, SUP, base, SeqHom.identity(), target=base)
    same_other_form = SeqHom.diag_plus_block(
        EvSeq.of(0, tail=F(1, 2)), ((F(1),),)
    )
    assert limit_uniqueness_audit(net, base, same_other_form, "nr", NbhdSet(SUP, Neighborhood.sup_ball(1))) is None


def test_limit_uniqueness_corrupted_limit_fails_precondition():
    base = SeqHom.diagonal(EvSeq.of(1, tail=F(1, 2)))
    net = HomNet.closed(SUP, SUP, base, SeqHom.identity(), target=base)
    corrupted = base + SeqHom.diagonal(EvSeq.constant(1))
    assert limit_uniqueness_audit(net, base, corrupted, "nr", NbhdSet(SUP, Neighborhood.sup_ball(1))) == "b"


def test_limit_uniqueness_all_modes():
    base = MatrixHom(((1, 0, 2), (0, -1, 0), (3, 0, 1)))
    decay = MatrixHom(((0, 1, 0), (2, 0, 0), (0, 0, -3)))
    net = HomNet.closed(Q3, Q3, base, decay, target=base)
    B = Interval(Q3, -FinVec.constant(3, 1), FinVec.constant(3, 1))
    for mode, region in (("nr", NbhdSet(Q3, Neighborhood.box((1, 1, 1)))), ("br", B), ("cr", None)):
        assert limit_uniqueness_audit(net, base, base + MatrixHom.zero(3), mode, region) is None


# ---------------------------------------------------------------------------
# Lattice continuity of the positive-part map.

def test_lattice_continuity_nr_mode_matrix_plus_decay():
    T = MatrixHom(((1, -2, 0), (0, 3, 1), (-1, 0, 2)))
    D = MatrixHom(((2, 0, 1), (0, -2, 0), (1, 1, 0)))
    net_t = HomNet.closed(Q3, Q3, T, D)
    net_s = HomNet.constant(Q3, Q3, T)
    assert lattice_continuity_audit(net_t, net_s, "nr", NbhdSet(Q3, Neighborhood.box((1, 1, 1))), seed=3) > 0


def test_lattice_continuity_equal_nets_everything_zero():
    T = SeqHom.diagonal(EvSeq.of(2, tail=1))
    net = HomNet.closed(SUP, SUP, T, SeqHom.identity())
    assert lattice_continuity_audit(net, net, "nr", NbhdSet(SUP, Neighborhood.sup_ball(1)), seed=5) > 0


def test_lattice_continuity_br_and_cr_modes():
    T = SeqHom.diagonal(EvSeq.of(2, -1, tail=F(1, 2)))
    net_t = HomNet.closed(SUP, SUP, T, SeqHom.diagonal(EvSeq.constant(2)))
    net_s = HomNet.closed(SUP, SUP, T, SeqHom.diagonal(EvSeq.constant(1)))
    B = Interval(SUP, -EvSeq.constant(2), EvSeq.constant(2))
    assert lattice_continuity_audit(net_t, net_s, "br", B, seed=7) > 0
    assert lattice_continuity_audit(net_t, net_s, "cr", seed=9) > 0


def test_lattice_continuity_requires_vanishing_difference():
    net_t = HomNet.constant(SUP, SUP, SeqHom.identity())
    net_s = HomNet.constant(SUP, SUP, SeqHom.zero())
    with pytest.raises(InvalidArgument):
        lattice_continuity_audit(net_t, net_s, "nr", NbhdSet(SUP, Neighborhood.sup_ball(1)))


def test_pointwise_lattice_inequality_holds_by_hand():
    # T+(x) - S+(x) <= (T - S)+(x) for a concrete pair and point.
    T = MatrixHom(((1, -2), (3, 0)))
    S = MatrixHom(((0, 1), (-1, 2)))
    x = FinVec.of(2, 1)
    lhs = positive_part(T).apply(x) - positive_part(S).apply(x)
    rhs = positive_part(T - S).apply(x)
    assert lhs <= rhs
