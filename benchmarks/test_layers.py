"""Per-layer micro-benchmarks on pytest-benchmark.

Each benchmark times one call of one layer on fixed seeded inputs: element
lattice ops and the order, matrix and sequence apply, the vertex oracle,
bound propagation, the two boundedness deciders, membership in a product
neighborhood that constrains a far coordinate and in a diagonal image of
one, the product V*W of two
neighborhoods, the convergence threshold of each mode, classification, the
law suites, building records (a `Space`, a `ReadingVerdict`, a matrix from
integer rows), matrix addition, and a cold start of the CLI.  Every case
reads a neighborhood's radius function through `coordinate_bounds`, so one
copy of this file times the parent commit and the change alike.  This directory is outside the
tier-1 `testpaths`; run the change's copy of it on its own, in a checkout of
the parent commit and in the change, on the same machine, with each JSON
written outside the checkouts:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json PARENT.json
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json CHANGE.json

then trim the two into the change's BENCH file and read its ratios:

    python benchmarks/bench_diff.py --write BENCH_<n>.json PARENT.json CHANGE.json
    python benchmarks/bench_diff.py BENCH_<n>.json

One such pair shows only differences of about 2x or more on a shared host;
`benchmarks/ab_ops.py` resolves smaller ones.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latring
from latring import (
    EvSeq,
    FinVec,
    HomNet,
    ImageSet,
    Interval,
    MatrixHom,
    Multiplication,
    NbhdSet,
    Neighborhood,
    SeqHom,
    Space,
    TopologyId,
    classify,
    converges,
    coordinate_bounds,
    set_contains,
    sup_over_interval_oracle,
)
from latring.audits import INSTANCES, all_suites, lattice_law_suite
from latring.homspaces import vw_box
from latring.sampling import rand_element, rand_matrix_rows, rand_pos_element, rng_for
from latring.topology import ReadingVerdict, bounds_group_bounded, bounds_ring_bounded

# Denominators up to 8, so a row mixes coprime ones and its common denominator grows.
RNG = rng_for(2024)


def _vec(n):
    return rand_element(RNG, Space.qn(n))


def _seq(prefix):
    return EvSeq(tuple(rand_element(RNG, Space.qn(prefix)).entries), Fraction(RNG.randint(-9, 9), RNG.randint(1, 8)))


X8, Y8 = _vec(8), _vec(8)
S8, R8 = _seq(8), _seq(5)
ELEMENTS = {"finvec": (X8, Y8), "evseq": (S8, R8)}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_join(benchmark, kind):
    x, y = ELEMENTS[kind]
    benchmark(x.join, y)


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_add(benchmark, kind):
    x, y = ELEMENTS[kind]
    benchmark(x.__add__, y)


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_le(benchmark, kind):
    x, y = ELEMENTS[kind]
    # An element below its join: every coordinate is compared.
    benchmark(x.__le__, x.join(y))


@pytest.mark.parametrize("n", [8, 64])
def test_matrix_apply(benchmark, n):
    T = MatrixHom(rand_matrix_rows(RNG, n))
    x = _vec(n)
    benchmark(T.apply, x)


def test_seq_apply(benchmark):
    h = SeqHom.diag_plus_block(_seq(12), rand_matrix_rows(RNG, 8))
    x = _seq(16)
    benchmark(h.apply, x)


def test_oracle_n8(benchmark):
    T = MatrixHom(rand_matrix_rows(RNG, 8))
    x = rand_pos_element(RNG, Space.qn(8))
    benchmark.pedantic(sup_over_interval_oracle, args=(T, x), rounds=20, iterations=1, warmup_rounds=1)


# The benchmarks below draw from their own generators, so the inputs above
# stay what they were.

PRODUCT = Space.evseq(TopologyId.EVSEQ_PRODUCT)


def _radii(space, U):
    """The radius function of a base neighborhood U of `space`."""
    return coordinate_bounds(NbhdSet(space, U))


def _propagate_inputs(kind):
    rng = rng_for(7)
    if kind == "matrix":
        return MatrixHom(rand_matrix_rows(rng, 64)), _radii(Space.qn(64), Neighborhood.box((1,) * 64))
    h = SeqHom.diag_plus_block(EvSeq(rand_element(rng, Space.qn(12)).entries, 2), rand_matrix_rows(rng, 8))
    return h, _radii(PRODUCT, Neighborhood.product(range(16), 1))


@pytest.mark.parametrize("kind", ["matrix", "seq"])
def test_propagate_bounds(benchmark, kind):
    T, bounds = _propagate_inputs(kind)
    benchmark(T.propagate_bounds, bounds)


# A finite image (Q^64 box through a dense matrix) and an unbounded one (the
# identity on a product neighborhood, which leaves every coordinate past 0 free).
_T64, _BOX64 = _propagate_inputs("matrix")
DECIDER_INPUTS = {
    "finite": (_T64.propagate_bounds(_BOX64), TopologyId.QN_BOX),
    "unbounded": (SeqHom.identity().propagate_bounds(_radii(PRODUCT, Neighborhood.product({0}, 1))),
                  TopologyId.EVSEQ_PRODUCT),
}


@pytest.mark.parametrize("case", sorted(DECIDER_INPUTS))
def test_bounds_ring_bounded(benchmark, case):
    bounds, topology = DECIDER_INPUTS[case]
    benchmark(bounds_ring_bounded, bounds, topology, Multiplication.POINTWISE)


@pytest.mark.parametrize("case", sorted(DECIDER_INPUTS))
def test_bounds_group_bounded(benchmark, case):
    bounds, topology = DECIDER_INPUTS[case]
    benchmark(bounds_group_bounded, bounds, topology)


# A product neighborhood that constrains coordinate 10^5, and a member of it.
MEMBERSHIP_INPUTS = {
    "product-far": (Neighborhood.product({0, 3, 10**5}, 1), EvSeq.of(Fraction(1, 2), 7, tail=Fraction(1, 4))),
}


@pytest.mark.parametrize("case", sorted(MEMBERSHIP_INPUTS))
def test_member(benchmark, case):
    U, x = MEMBERSHIP_INPUTS[case]
    assert benchmark(U.member, x)


# Membership in a diagonal image of a product neighborhood that constrains
# coordinate 10^5: one member and one non-member, each decided per round.
IMAGE_MEMBERSHIP_INPUTS = {
    "product-far": (
        ImageSet(PRODUCT, SeqHom.diagonal(EvSeq.of(2, 0, tail=3)), NbhdSet(PRODUCT, Neighborhood.product({10**5}, 1))),
        EvSeq.of(7, 0, tail=3),
        EvSeq.of(7, 0, tail=6),
    ),
}


def _member_and_not(S, x, y):
    return set_contains(S, x), set_contains(S, y)


@pytest.mark.parametrize("case", sorted(IMAGE_MEMBERSHIP_INPUTS))
def test_image_member(benchmark, case):
    # A fixed round count: at a dense walk one call takes a few tenths of a second.
    args = IMAGE_MEMBERSHIP_INPUTS[case]
    assert benchmark.pedantic(_member_and_not, args=args, rounds=10, iterations=1, warmup_rounds=1) == (True, False)


VW_INPUTS = {"product": (Neighborhood.product({0, 1, 2, 5}, Fraction(1, 3)), Neighborhood.product({1, 2, 7}, 2))}


@pytest.mark.parametrize("base", sorted(VW_INPUTS))
def test_vw_box(benchmark, base):
    V, W = VW_INPUTS[base]
    assert benchmark(vw_box, V, W) == Neighborhood.product({1, 2}, Fraction(2, 3))


# Record construction, every field by position, and matrix addition, on Q^16 matrices.
_RNG16 = rng_for(19)
_T16, _S16 = MatrixHom(rand_matrix_rows(_RNG16, 16)), MatrixHom(rand_matrix_rows(_RNG16, 16))
BUILDS = {
    "space": (Space.qn, (8,)),
    "reading_verdict": (ReadingVerdict, (True, False, None, None, None, "")),
    "matrix16": (MatrixHom.from_int_rows, (_T16.int_rows,)),
}


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_build(benchmark, kind):
    build, args = BUILDS[kind]
    benchmark(build, *args)


@pytest.mark.parametrize("n", [16])
def test_matrix_add(benchmark, n):
    T, S = {16: (_T16, _S16)}[n]
    assert benchmark(T.__add__, S) == S + T


def _certificate(mode):
    """A convergent certificate and its (V, W) target for each mode.

    nr-table and cr-table are 70-term table nets; every term of cr-table
    qualifies, so its threshold search checks all 70 entries.
    """
    rng = rng_for(11)
    sup, prod, q8 = Space.evseq(TopologyId.EVSEQ_SUPNORM), Space.evseq(TopologyId.EVSEQ_PRODUCT), Space.qn(8)
    diag = SeqHom.diagonal(EvSeq.of(Fraction(1, 2), 3, tail=2))
    decay = SeqHom.diagonal(EvSeq.of(1, -4, tail=1))
    ball = NbhdSet(sup, Neighborhood.sup_ball(1))
    if mode == "nr":
        net = HomNet.closed(sup, sup, diag, decay, target=diag)
        return converges(net, diag, "nr", ball), Neighborhood.sup_ball(Fraction(1, 7)), None
    if mode == "nr-table":
        terms = [diag + decay.scale(Fraction(1, a)) for a in range(1, 70)] + [diag]
        net = HomNet.table(sup, sup, terms, target=diag)
        return converges(net, diag, "nr", ball), Neighborhood.sup_ball(Fraction(1, 7)), None
    if mode == "br":
        base, step = MatrixHom(rand_matrix_rows(rng, 8)), MatrixHom(rand_matrix_rows(rng, 8))
        net = HomNet.closed(q8, q8, base, step, target=base)
        B = Interval(q8, -FinVec.constant(8, 2), FinVec.constant(8, 2))
        return converges(net, base, "br", B), Neighborhood.box((Fraction(1, 5),) * 8), None
    V, W = Neighborhood.product({0, 1}, Fraction(1, 3)), Neighborhood.product({0, 2}, Fraction(1, 2))
    if mode == "cr-table":
        spread = SeqHom.diag_plus_block(EvSeq.of(1, -4, tail=1), rand_matrix_rows(rng_for(13), 4))
        terms = [diag + spread.scale(Fraction(1, 1000 * a)) for a in range(1, 70)] + [diag]
        net = HomNet.table(prod, prod, terms, target=diag)
        return converges(net, diag, "cr"), V, W
    net = HomNet.closed(prod, prod, diag, decay, target=diag)
    return converges(net, diag, "cr"), V, W


@pytest.mark.parametrize("mode", ["nr", "nr-table", "br", "cr", "cr-table"])
def test_alpha0_for(benchmark, mode):
    cert, V, W = _certificate(mode)
    assert cert.convergent
    benchmark(cert.alpha0_for, V, W)


def _classify_inputs(kind):
    rng = rng_for(17)
    if kind == "q64":
        return MatrixHom(rand_matrix_rows(rng, 64)), Space.qn(64)
    h = SeqHom.diag_plus_block(EvSeq(rand_element(rng, Space.qn(12)).entries, 0), rand_matrix_rows(rng, 8))
    return h, Space.evseq(TopologyId.EVSEQ_PRODUCT)


@pytest.mark.parametrize("kind", ["q64", "seq"])
def test_classify(benchmark, kind):
    T, space = _classify_inputs(kind)
    benchmark(classify, T, space, space)


@pytest.mark.parametrize("instance", ["q3", "evseq"])
def test_lattice_law_suite(benchmark, instance):
    inst = INSTANCES["q3_pointwise" if instance == "q3" else "evseq_product_pointwise"]
    results = benchmark(lattice_law_suite, inst, 0, 320)
    assert all(r.passed for r in results)


def test_all_suites(benchmark):
    results = benchmark(all_suites, 0, 320)
    assert all(r.passed for r in results)


def test_z_lattice_law_suite(benchmark):
    # The integer instance at the size `gallery --cases 320` runs it (cases // 5).
    results = benchmark(lattice_law_suite, INSTANCES["z_discrete"], 1, 64)
    assert all(r.passed for r in results)


# A fresh isolated interpreter that builds the CLI's parser, as every command
# run does before its work starts.  `-I` ignores PYTHONPATH, so the child is
# handed the sources imported here; the warm-up round writes their bytecode.
COLD_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); from latring.cli import build_parser; build_parser()"


def test_cold_import(benchmark):
    argv = [sys.executable, "-I", "-c", COLD_IMPORT, str(Path(latring.__file__).parents[1])]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"check": True}, rounds=20, iterations=1, warmup_rounds=1)
