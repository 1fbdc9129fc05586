"""Carrier conformance: every set form on Q^2, sequences and the integers.

Each coordinatewise job (bounds, member sampling, solidity, non-solid
witnesses, membership through an image) is pinned on all three carriers, so
a change to how a job reads coordinates, or to the order in which it draws
them, fails here.  Every set is also measured against each base neighborhood
of its carrier (`group_bound_multiplier`), and every such neighborhood is
probed for membership.  The pinned values are the output of the code before
the jobs shared one coordinate view, and before neighborhoods were decided
through their radius function; regenerate them only for an intended change.
"""

from fractions import Fraction as F

import pytest

from latring import (
    EvSeq,
    FinVec,
    FiniteSet,
    IdentityHom,
    ImageSet,
    Interval,
    InvalidElement,
    MatrixHom,
    NbhdSet,
    Neighborhood,
    SeqHom,
    SolidHull,
    Space,
    TopologyId,
    coordinate_bounds,
    group_bound_multiplier,
    is_solid,
    sample_member,
    set_contains,
)
from latring.sampling import rng_for
from latring.topology import base_generators, non_solid_witness

Q2 = Space.qn(2)
SEQ = Space.evseq(TopologyId.EVSEQ_PRODUCT)
ZD = Space.z_discrete()

BASES = {
    "q2-interval": Interval(Q2, FinVec.of(-1, F(1, 2)), FinVec.of(3, 2)),
    "q2-finite": FiniteSet(Q2, (FinVec.of(1, -2), FinVec.of(0, F(3, 4)))),
    "q2-hull": SolidHull(Q2, (FinVec.of(2, -1), FinVec.of(F(-1, 3), 3))),
    "q2-nbhd": NbhdSet(Q2, Neighborhood.box((1, F(5, 2)))),
    "q2-zero": FiniteSet(Q2, (FinVec.zero(2),)),
    "seq-interval": Interval(SEQ, EvSeq.of(-1, 2, tail=0), EvSeq.of(3, 4, tail=1)),
    "seq-finite": FiniteSet(SEQ, (EvSeq.of(1, -2, tail=F(1, 2)), EvSeq.zero())),
    "seq-hull": SolidHull(SEQ, (EvSeq.of(2, tail=-1), EvSeq.of(0, 0, 3, tail=F(1, 2)))),
    "seq-nbhd": NbhdSet(SEQ, Neighborhood.product({0, 2}, F(3, 2))),
    "seq-zero": FiniteSet(SEQ, (EvSeq.zero(),)),
    "z-interval": Interval(ZD, -1, 3),
    "z-finite": FiniteSet(ZD, (0, 4, -2)),
    "z-hull": SolidHull(ZD, (3, -5)),
    "z-nbhd": NbhdSet(ZD, Neighborhood.discrete_zero()),
    "z-zero": FiniteSet(ZD, (0,)),
}


def _carrier(name: str) -> str:
    """The carrier a set name lives on: q2-interval and matrix(q2-interval) are on q2."""
    return name.split("(")[-1].split("-")[0]


# One image per homomorphism form, over each base of its carrier.
HOMS = {
    "q2": {"matrix": MatrixHom(((1, 2), (0, -1))), "identity-matrix": MatrixHom.identity(2)},
    "seq": {
        "diagonal": SeqHom.diagonal(EvSeq.of(2, 0, tail=3)),
        "block": SeqHom.diag_plus_block(EvSeq.of(1, tail=2), ((0, 1), (F(1, 2), 0))),
    },
    "z": {"identity": IdentityHom()},
}
IMAGES = {
    f"{hom_name}({base_name})": ImageSet(base.space, hom, base)
    for base_name, base in BASES.items()
    for hom_name, hom in HOMS[_carrier(base_name)].items()
}
SETS = {**BASES, **IMAGES}

# Each carrier's base neighborhoods as `base_generators` spreads them; the
# sequence carrier carries both the product and the sup-norm base.
NBHD_SPACES = {"q2": [Q2], "seq": [SEQ, Space.evseq(TopologyId.EVSEQ_SUPNORM)], "z": [ZD]}
NBHDS = {
    carrier: {
        f"{space.topology.value}[{k}]": NbhdSet(space, U)
        for space in spaces
        for k, U in enumerate(base_generators(space.topology, dim=space.dim))
    }
    for carrier, spaces in NBHD_SPACES.items()
}

PROBES = {
    "q2": (FinVec.of(1, -2), FinVec.of(0, 0), FinVec.of(-3, 2), FinVec.of(F(3, 2), F(-3, 4))),
    "seq": (EvSeq.zero(), EvSeq.of(2, 0, tail=3), EvSeq.of(4, tail=0), EvSeq.of(-1, 1, tail=F(1, 2))),
    "z": (0, 2, -1, 7),
}


def _bounds_doc(S) -> tuple:
    b = coordinate_bounds(S)
    return tuple(str(v) for v in b.head), None if b.tail is None else str(b.tail)


# Pinned values (strings for exact rationals; "InvalidElement" where membership is not decided).

EXPECTED_BOUNDS: dict = {'block(seq-finite)': (('3', '9/2'), '1'),
 'block(seq-hull)': (('3', '3', '6'), '2'),
 'block(seq-interval)': (('7', '19/2'), '2'),
 'block(seq-nbhd)': (('INF', 'INF', '3'), 'INF'),
 'block(seq-zero)': ((), '0'),
 'diagonal(seq-finite)': (('2', '0'), '3/2'),
 'diagonal(seq-hull)': (('4', '0', '9'), '3'),
 'diagonal(seq-interval)': (('6', '0'), '3'),
 'diagonal(seq-nbhd)': (('3', '0', '9/2'), 'INF'),
 'diagonal(seq-zero)': ((), '0'),
 'identity(z-finite)': (('4',), None),
 'identity(z-hull)': (('5',), None),
 'identity(z-interval)': (('3',), None),
 'identity(z-nbhd)': (('0',), None),
 'identity(z-zero)': (('0',), None),
 'identity-matrix(q2-finite)': (('1', '2'), None),
 'identity-matrix(q2-hull)': (('2', '3'), None),
 'identity-matrix(q2-interval)': (('3', '2'), None),
 'identity-matrix(q2-nbhd)': (('1', '5/2'), None),
 'identity-matrix(q2-zero)': (('0', '0'), None),
 'matrix(q2-finite)': (('5', '2'), None),
 'matrix(q2-hull)': (('8', '3'), None),
 'matrix(q2-interval)': (('7', '2'), None),
 'matrix(q2-nbhd)': (('6', '5/2'), None),
 'matrix(q2-zero)': (('0', '0'), None),
 'q2-finite': (('1', '2'), None),
 'q2-hull': (('2', '3'), None),
 'q2-interval': (('3', '2'), None),
 'q2-nbhd': (('1', '5/2'), None),
 'q2-zero': (('0', '0'), None),
 'seq-finite': (('1', '2'), '1/2'),
 'seq-hull': (('2', '1', '3'), '1'),
 'seq-interval': (('3', '4'), '1'),
 'seq-nbhd': (('3/2', 'INF', '3/2'), 'INF'),
 'seq-zero': ((), '0'),
 'z-finite': (('4',), None),
 'z-hull': (('5',), None),
 'z-interval': (('3',), None),
 'z-nbhd': (('0',), None),
 'z-zero': (('0',), None)}

EXPECTED_SAMPLES: dict = {'block(seq-finite)': ['EvSeq([], tail=0)',
                       'EvSeq([], tail=0)',
                       'EvSeq([], tail=0)',
                       'EvSeq([-1, -7/2], tail=1)'],
 'block(seq-hull)': ['EvSeq([0, 0, 1], tail=1/6)',
                     'EvSeq([-5/6, 1/12], tail=2/3)',
                     'EvSeq([0, 0, -7/2], tail=-3/4)',
                     'EvSeq([0, 0, -5], tail=5/12)'],
 'block(seq-interval)': ['EvSeq([19/4, 15/2], tail=2)',
                         'EvSeq([9/2, 7], tail=4/3)',
                         'EvSeq([9/2, 6], tail=5/12)',
                         'EvSeq([59/12, 22/3], tail=5/3)'],
 'block(seq-nbhd)': ['EvSeq([29/8, 101/16, 1/2, 1, -19/4, 20/3], tail=-6)',
                     'EvSeq([-26, -101/2, 7/4, -5/4, 22/3], tail=18)',
                     'EvSeq([-67/8, -235/16, -5/4], tail=16)',
                     'EvSeq([-3/4, -9/8, 1, -32/5, 2, 12], tail=-2/5)'],
 'block(seq-zero)': ['EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)'],
 'diagonal(seq-finite)': ['EvSeq([], tail=0)',
                          'EvSeq([], tail=0)',
                          'EvSeq([], tail=0)',
                          'EvSeq([2, 0], tail=3/2)'],
 'diagonal(seq-hull)': ['EvSeq([0, 0, 3/2], tail=1/4)',
                        'EvSeq([-7/3, 0], tail=1)',
                        'EvSeq([0, 0, -21/4], tail=-9/8)',
                        'EvSeq([0, 0, -15/2], tail=5/8)'],
 'diagonal(seq-interval)': ['EvSeq([8/3, 0], tail=3)',
                            'EvSeq([8/3, 0], tail=2)',
                            'EvSeq([4, 0], tail=5/8)',
                            'EvSeq([10/3, 0], tail=5/2)'],
 'diagonal(seq-nbhd)': ['EvSeq([5/4, 0, 3/4, 3/2, -57/8, 10], tail=-9)',
                        'EvSeq([-2, 0, 21/8, -15/8, 11], tail=27)',
                        'EvSeq([-11/4, 0, -15/8], tail=24)',
                        'EvSeq([-1/2, 0, 3/2, -48/5, 3, 18], tail=-3/5)'],
 'diagonal(seq-zero)': ['EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)'],
 'identity(z-finite)': ['4', '-2', '4', '4'],
 'identity(z-hull)': ['3', '2', '-2', '5'],
 'identity(z-interval)': ['2', '3', '2', '2'],
 'identity(z-nbhd)': ['0', '0', '0', '0'],
 'identity(z-zero)': ['0', '0', '0', '0'],
 'identity-matrix(q2-finite)': ['FinVec(0, 3/4)', 'FinVec(0, 3/4)', 'FinVec(0, 3/4)', 'FinVec(1, -2)'],
 'identity-matrix(q2-hull)': ['FinVec(5/36, 3)', 'FinVec(1/18, 1)', 'FinVec(-7/6, 1/3)', 'FinVec(2/9, 7/4)'],
 'identity-matrix(q2-interval)': ['FinVec(4/3, 25/16)',
                                  'FinVec(3, 11/8)',
                                  'FinVec(4/3, 3/2)',
                                  'FinVec(2, 7/8)'],
 'identity-matrix(q2-nbhd)': ['FinVec(1/6, 25/24)',
                              'FinVec(1, 5/12)',
                              'FinVec(1/6, 5/6)',
                              'FinVec(1/2, -5/4)'],
 'identity-matrix(q2-zero)': ['FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)'],
 'matrix(q2-finite)': ['FinVec(3/2, -3/4)', 'FinVec(3/2, -3/4)', 'FinVec(3/2, -3/4)', 'FinVec(-3, 2)'],
 'matrix(q2-hull)': ['FinVec(221/36, -3)', 'FinVec(37/18, -1)', 'FinVec(-1/2, -1/3)', 'FinVec(67/18, -7/4)'],
 'matrix(q2-interval)': ['FinVec(107/24, -25/16)',
                         'FinVec(23/4, -11/8)',
                         'FinVec(13/3, -3/2)',
                         'FinVec(15/4, -7/8)'],
 'matrix(q2-nbhd)': ['FinVec(9/4, -25/24)', 'FinVec(11/6, -5/12)', 'FinVec(11/6, -5/6)', 'FinVec(-2, 5/4)'],
 'matrix(q2-zero)': ['FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)'],
 'q2-finite': ['FinVec(0, 3/4)', 'FinVec(0, 3/4)', 'FinVec(0, 3/4)', 'FinVec(1, -2)'],
 'q2-hull': ['FinVec(5/36, 3)', 'FinVec(1/18, 1)', 'FinVec(-7/6, 1/3)', 'FinVec(2/9, 7/4)'],
 'q2-interval': ['FinVec(4/3, 25/16)', 'FinVec(3, 11/8)', 'FinVec(4/3, 3/2)', 'FinVec(2, 7/8)'],
 'q2-nbhd': ['FinVec(1/6, 25/24)', 'FinVec(1, 5/12)', 'FinVec(1/6, 5/6)', 'FinVec(1/2, -5/4)'],
 'q2-zero': ['FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)', 'FinVec(0, 0)'],
 'seq-finite': ['EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([1, -2], tail=1/2)'],
 'seq-hull': ['EvSeq([0, 0, 1/2], tail=1/12)',
              'EvSeq([-7/6], tail=1/3)',
              'EvSeq([0, 0, -7/4], tail=-3/8)',
              'EvSeq([0, 0, -5/2], tail=5/24)'],
 'seq-interval': ['EvSeq([4/3, 41/12], tail=1)',
                  'EvSeq([4/3, 19/6], tail=2/3)',
                  'EvSeq([2, 5/2], tail=5/24)',
                  'EvSeq([5/3, 13/4], tail=5/6)'],
 'seq-nbhd': ['EvSeq([5/8, 3, 1/4, 1/2, -19/8, 10/3], tail=-3)',
              'EvSeq([-1, -25, 7/8, -5/8, 11/3], tail=9)',
              'EvSeq([-11/8, -7, -5/8], tail=8)',
              'EvSeq([-1/4, -1/2, 1/2, -16/5, 1, 6], tail=-1/5)'],
 'seq-zero': ['EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)', 'EvSeq([], tail=0)'],
 'z-finite': ['4', '-2', '4', '4'],
 'z-hull': ['3', '2', '-2', '5'],
 'z-interval': ['2', '3', '2', '2'],
 'z-nbhd': ['0', '0', '0', '0'],
 'z-zero': ['0', '0', '0', '0']}

EXPECTED_SOLID: dict = {'block(seq-finite)': False,
 'block(seq-hull)': False,
 'block(seq-interval)': False,
 'block(seq-nbhd)': False,
 'block(seq-zero)': False,
 'diagonal(seq-finite)': False,
 'diagonal(seq-hull)': True,
 'diagonal(seq-interval)': False,
 'diagonal(seq-nbhd)': True,
 'diagonal(seq-zero)': True,
 'identity(z-finite)': False,
 'identity(z-hull)': True,
 'identity(z-interval)': False,
 'identity(z-nbhd)': True,
 'identity(z-zero)': True,
 'identity-matrix(q2-finite)': False,
 'identity-matrix(q2-hull)': True,
 'identity-matrix(q2-interval)': False,
 'identity-matrix(q2-nbhd)': True,
 'identity-matrix(q2-zero)': True,
 'matrix(q2-finite)': False,
 'matrix(q2-hull)': False,
 'matrix(q2-interval)': False,
 'matrix(q2-nbhd)': False,
 'matrix(q2-zero)': False,
 'q2-finite': False,
 'q2-hull': True,
 'q2-interval': False,
 'q2-nbhd': True,
 'q2-zero': True,
 'seq-finite': False,
 'seq-hull': True,
 'seq-interval': False,
 'seq-nbhd': True,
 'seq-zero': True,
 'z-finite': False,
 'z-hull': True,
 'z-interval': False,
 'z-nbhd': True,
 'z-zero': True}

EXPECTED_IMAGE_MEMBERSHIP: dict = {'block(seq-finite)': [True, False, False, False],
 'block(seq-hull)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'block(seq-interval)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'block(seq-nbhd)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'block(seq-zero)': [True, False, False, False],
 'diagonal(seq-finite)': [True, False, False, False],
 'diagonal(seq-hull)': [True, True, True, False],
 'diagonal(seq-interval)': [True, True, True, False],
 'diagonal(seq-nbhd)': [True, True, False, False],
 'diagonal(seq-zero)': [True, False, False, False],
 'identity(z-finite)': [True, False, False, False],
 'identity(z-hull)': [True, True, True, False],
 'identity(z-interval)': [True, True, True, False],
 'identity(z-nbhd)': [True, False, False, False],
 'identity(z-zero)': [True, False, False, False],
 'identity-matrix(q2-finite)': [True, False, False, False],
 'identity-matrix(q2-hull)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'identity-matrix(q2-interval)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'identity-matrix(q2-nbhd)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'identity-matrix(q2-zero)': [False, True, False, False],
 'matrix(q2-finite)': [False, False, True, True],
 'matrix(q2-hull)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'matrix(q2-interval)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'matrix(q2-nbhd)': ['InvalidElement', 'InvalidElement', 'InvalidElement', 'InvalidElement'],
 'matrix(q2-zero)': [False, True, False, False]}

EXPECTED_MULTIPLIERS: dict = {'block(seq-finite)': {'evseq_product[0]': 3,
                       'evseq_product[1]': 14,
                       'evseq_product[2]': 1,
                       'evseq_supnorm[0]': 5,
                       'evseq_supnorm[1]': 23,
                       'evseq_supnorm[2]': 2},
 'block(seq-hull)': {'evseq_product[0]': 3,
                     'evseq_product[1]': 18,
                     'evseq_product[2]': 1,
                     'evseq_supnorm[0]': 6,
                     'evseq_supnorm[1]': 30,
                     'evseq_supnorm[2]': 2},
 'block(seq-interval)': {'evseq_product[0]': 7,
                         'evseq_product[1]': 29,
                         'evseq_product[2]': 1,
                         'evseq_supnorm[0]': 10,
                         'evseq_supnorm[1]': 48,
                         'evseq_supnorm[2]': 4},
 'block(seq-nbhd)': {'evseq_product[0]': None,
                     'evseq_product[1]': None,
                     'evseq_product[2]': None,
                     'evseq_supnorm[0]': None,
                     'evseq_supnorm[1]': None,
                     'evseq_supnorm[2]': None},
 'block(seq-zero)': {'evseq_product[0]': 1,
                     'evseq_product[1]': 1,
                     'evseq_product[2]': 1,
                     'evseq_supnorm[0]': 1,
                     'evseq_supnorm[1]': 1,
                     'evseq_supnorm[2]': 1},
 'diagonal(seq-finite)': {'evseq_product[0]': 2,
                          'evseq_product[1]': 6,
                          'evseq_product[2]': 1,
                          'evseq_supnorm[0]': 2,
                          'evseq_supnorm[1]': 10,
                          'evseq_supnorm[2]': 1},
 'diagonal(seq-hull)': {'evseq_product[0]': 4,
                        'evseq_product[1]': 27,
                        'evseq_product[2]': 1,
                        'evseq_supnorm[0]': 9,
                        'evseq_supnorm[1]': 45,
                        'evseq_supnorm[2]': 3},
 'diagonal(seq-interval)': {'evseq_product[0]': 6,
                            'evseq_product[1]': 18,
                            'evseq_product[2]': 1,
                            'evseq_supnorm[0]': 6,
                            'evseq_supnorm[1]': 30,
                            'evseq_supnorm[2]': 2},
 'diagonal(seq-nbhd)': {'evseq_product[0]': 3,
                        'evseq_product[1]': 14,
                        'evseq_product[2]': None,
                        'evseq_supnorm[0]': None,
                        'evseq_supnorm[1]': None,
                        'evseq_supnorm[2]': None},
 'diagonal(seq-zero)': {'evseq_product[0]': 1,
                        'evseq_product[1]': 1,
                        'evseq_product[2]': 1,
                        'evseq_supnorm[0]': 1,
                        'evseq_supnorm[1]': 1,
                        'evseq_supnorm[2]': 1},
 'identity(z-finite)': {'z_discrete[0]': None},
 'identity(z-hull)': {'z_discrete[0]': None},
 'identity(z-interval)': {'z_discrete[0]': None},
 'identity(z-nbhd)': {'z_discrete[0]': 1},
 'identity(z-zero)': {'z_discrete[0]': 1},
 'identity-matrix(q2-finite)': {'qn_box[0]': 2, 'qn_box[1]': 4, 'qn_box[2]': 1},
 'identity-matrix(q2-hull)': {'qn_box[0]': 3, 'qn_box[1]': 6, 'qn_box[2]': 2},
 'identity-matrix(q2-interval)': {'qn_box[0]': 3, 'qn_box[1]': 4, 'qn_box[2]': 2},
 'identity-matrix(q2-nbhd)': {'qn_box[0]': 3, 'qn_box[1]': 5, 'qn_box[2]': 1},
 'identity-matrix(q2-zero)': {'qn_box[0]': 1, 'qn_box[1]': 1, 'qn_box[2]': 1},
 'matrix(q2-finite)': {'qn_box[0]': 5, 'qn_box[1]': 5, 'qn_box[2]': 2},
 'matrix(q2-hull)': {'qn_box[0]': 8, 'qn_box[1]': 8, 'qn_box[2]': 4},
 'matrix(q2-interval)': {'qn_box[0]': 7, 'qn_box[1]': 7, 'qn_box[2]': 3},
 'matrix(q2-nbhd)': {'qn_box[0]': 6, 'qn_box[1]': 6, 'qn_box[2]': 3},
 'matrix(q2-zero)': {'qn_box[0]': 1, 'qn_box[1]': 1, 'qn_box[2]': 1},
 'q2-finite': {'qn_box[0]': 2, 'qn_box[1]': 4, 'qn_box[2]': 1},
 'q2-hull': {'qn_box[0]': 3, 'qn_box[1]': 6, 'qn_box[2]': 2},
 'q2-interval': {'qn_box[0]': 3, 'qn_box[1]': 4, 'qn_box[2]': 2},
 'q2-nbhd': {'qn_box[0]': 3, 'qn_box[1]': 5, 'qn_box[2]': 1},
 'q2-zero': {'qn_box[0]': 1, 'qn_box[1]': 1, 'qn_box[2]': 1},
 'seq-finite': {'evseq_product[0]': 1,
                'evseq_product[1]': 6,
                'evseq_product[2]': 1,
                'evseq_supnorm[0]': 2,
                'evseq_supnorm[1]': 10,
                'evseq_supnorm[2]': 1},
 'seq-hull': {'evseq_product[0]': 2,
              'evseq_product[1]': 9,
              'evseq_product[2]': 1,
              'evseq_supnorm[0]': 3,
              'evseq_supnorm[1]': 15,
              'evseq_supnorm[2]': 1},
 'seq-interval': {'evseq_product[0]': 3,
                  'evseq_product[1]': 12,
                  'evseq_product[2]': 1,
                  'evseq_supnorm[0]': 4,
                  'evseq_supnorm[1]': 20,
                  'evseq_supnorm[2]': 2},
 'seq-nbhd': {'evseq_product[0]': 2,
              'evseq_product[1]': None,
              'evseq_product[2]': None,
              'evseq_supnorm[0]': None,
              'evseq_supnorm[1]': None,
              'evseq_supnorm[2]': None},
 'seq-zero': {'evseq_product[0]': 1,
              'evseq_product[1]': 1,
              'evseq_product[2]': 1,
              'evseq_supnorm[0]': 1,
              'evseq_supnorm[1]': 1,
              'evseq_supnorm[2]': 1},
 'z-finite': {'z_discrete[0]': None},
 'z-hull': {'z_discrete[0]': None},
 'z-interval': {'z_discrete[0]': None},
 'z-nbhd': {'z_discrete[0]': 1},
 'z-zero': {'z_discrete[0]': 1}}

EXPECTED_NBHD_MEMBERSHIP: dict = {'q2:qn_box[0]': [False, True, False, False],
 'q2:qn_box[1]': [False, True, False, False],
 'q2:qn_box[2]': [True, True, False, True],
 'seq:evseq_product[0]': [True, False, False, True],
 'seq:evseq_product[1]': [True, False, False, False],
 'seq:evseq_product[2]': [True, True, True, True],
 'seq:evseq_supnorm[0]': [True, False, False, True],
 'seq:evseq_supnorm[1]': [True, False, False, False],
 'seq:evseq_supnorm[2]': [True, True, False, True],
 'z:z_discrete[0]': [True, False, False, False]}


@pytest.mark.parametrize("name", sorted(SETS))
def test_coordinate_bounds_pinned(name):
    assert _bounds_doc(SETS[name]) == EXPECTED_BOUNDS[name]


@pytest.mark.parametrize("name", sorted(SETS))
def test_seeded_samples_pinned(name):
    rng = rng_for(11)
    assert [repr(sample_member(SETS[name], rng)) for _ in range(4)] == EXPECTED_SAMPLES[name]


@pytest.mark.parametrize("name", sorted(SETS))
def test_solidity_pinned(name):
    assert is_solid(SETS[name]) == EXPECTED_SOLID[name]


@pytest.mark.parametrize("name", sorted(n for n in BASES if not EXPECTED_SOLID[n]))
def test_non_solid_witness_checks_out(name):
    S = SETS[name]
    x, y = non_solid_witness(S)
    assert set_contains(S, y)
    assert not set_contains(S, x)
    assert abs(x) <= abs(y)


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_image_membership_pinned(name):
    S = IMAGES[name]
    answers = []
    for x in PROBES[_carrier(name)]:
        try:
            answers.append(set_contains(S, x))
        except InvalidElement:
            answers.append("InvalidElement")
    assert answers == EXPECTED_IMAGE_MEMBERSHIP[name]


@pytest.mark.parametrize("name", sorted(SETS))
def test_group_bound_multiplier_pinned(name):
    nbhds = NBHDS[_carrier(name)]
    got = {key: group_bound_multiplier(SETS[name], N.nbhd) for key, N in nbhds.items()}
    assert got == EXPECTED_MULTIPLIERS[name]


@pytest.mark.parametrize("carrier, key", [(c, k) for c in sorted(NBHDS) for k in sorted(NBHDS[c])])
def test_nbhd_membership_pinned(carrier, key):
    N = NBHDS[carrier][key]
    assert [set_contains(N, x) for x in PROBES[carrier]] == EXPECTED_NBHD_MEMBERSHIP[f"{carrier}:{key}"]
