"""Per-layer micro-benchmarks on pytest-benchmark.

Each benchmark times one call of one layer on fixed seeded inputs: element
lattice ops and the order, an element's radius function, matrix and sequence
apply, the vertex oracle, bound propagation, the two boundedness deciders,
the solidity decider, membership in a product neighborhood that constrains a
far coordinate and in a diagonal image of one, the product V*W of two
neighborhoods, the convergence threshold of each mode, the exact recheck at
one entry index (`verify_at`) and a certificate's `recheck`, each on a fresh
certificate, classification, the order-boundedness spot check, the law
suites, building records (a `Space`, a `ReadingVerdict`, a matrix from
integer rows), matrix addition, reading a Q^64 spec file's matrices (with
repeated literals, with every literal distinct, and with 2048 prime
denominators), and a cold start of the CLI.
Every case reads a neighborhood's radius function through
`coordinate_bounds`, so one copy of this file times the parent commit and the
change alike.  This directory is outside the tier-1 `testpaths`; run the
change's copy of it on its own, in a checkout of the parent commit and in the
change, on the same machine, with each JSON written outside the checkouts:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json PARENT.json
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json CHANGE.json

then trim the two into the change's BENCH file and read its ratios:

    python benchmarks/bench_diff.py --write BENCH_<n>.json PARENT.json CHANGE.json
    python benchmarks/bench_diff.py BENCH_<n>.json

One such pair shows only differences of about 2x or more on a shared host;
`benchmarks/ab_ops.py` resolves smaller ones.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latring
from latring import (
    EvSeq,
    FinVec,
    FiniteSet,
    HomNet,
    ImageSet,
    Interval,
    MatrixHom,
    Multiplication,
    NbhdSet,
    Neighborhood,
    SeqHom,
    SolidHull,
    Space,
    TopologyId,
    ZInt,
    classify,
    converges,
    coordinate_bounds,
    is_order_bounded,
    set_contains,
    sup_over_interval_oracle,
)
from latring.audits import INSTANCES, all_suites, lattice_law_suite
from latring.homspaces import vw_box
from latring.sampling import rand_element, rand_matrix_rows, rand_pos_element, rng_for
from latring.specfile import parse_specdoc
from latring.topology import (
    ReadingVerdict,
    bounds_group_bounded,
    bounds_ring_bounded,
    element_bounds,
    non_solid_witness,
)

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


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
def test_element_bounds(benchmark, kind):
    benchmark(element_bounds, ELEMENTS[kind][0])


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


# Two solid sets: the integers -30..30, and a diagonal image of a solid hull.
SOLIDITY_INPUTS = {
    "z-finite-61": FiniteSet(Space.z_discrete(), tuple(map(ZInt, range(-30, 31)))),
    "seq-diagonal-hull": ImageSet(PRODUCT, SeqHom.diagonal(EvSeq.of(2, 0, tail=3)),
                                  SolidHull(PRODUCT, (EvSeq.of(2, tail=-1), EvSeq.of(0, 0, 3, tail=Fraction(1, 2))))),
}


@pytest.mark.parametrize("case", sorted(SOLIDITY_INPUTS))
def test_non_solid_witness(benchmark, case):
    assert benchmark(non_solid_witness, SOLIDITY_INPUTS[case]) is None


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


def _q32_net(form):
    """A closed-form or 4-term table net on Q^32 whose base is its limit, and the unit box."""
    rng = rng_for(29)
    q32 = Space.qn(32)
    base, decay = MatrixHom(rand_matrix_rows(rng, 32)), MatrixHom(rand_matrix_rows(rng, 32))
    if form == "closed":
        net = HomNet.closed(q32, q32, base, decay, target=base)
    else:
        net = HomNet.table(q32, q32, [base + decay.scale(Fraction(1, a)) for a in (1, 2, 3)] + [base], target=base)
    return net, base, NbhdSet(q32, Neighborhood.box((1,) * 32))


# Each case: (build a fresh certificate, V, W, alpha).  Every round gets a new
# certificate, as every `converge` command does, so a difference or frame a
# certificate keeps is not carried from one round to the next.
def _verify_at_case(case):
    if case.startswith("q32-"):
        net, base, unit = _q32_net(case.removeprefix("q32-"))
        return lambda: converges(net, base, "nr", unit), Neighborhood.box((Fraction(1, 5),) * 32), None, 1
    rng = rng_for(31)
    h = SeqHom.diag_plus_block(EvSeq(rand_element(rng, Space.qn(12)).entries, 2), rand_matrix_rows(rng, 8))
    decay = SeqHom.diag_plus_block(EvSeq(rand_element(rng, Space.qn(16)).entries, 0), rand_matrix_rows(rng, 8))
    net = HomNet.closed(PRODUCT, PRODUCT, h, decay, target=h)
    U = NbhdSet(PRODUCT, Neighborhood.product(range(16), 1))
    return lambda: converges(net, h, "nr", U), Neighborhood.product(range(16), Fraction(1, 5)), None, 3


@pytest.mark.parametrize("case", ["q32-closed", "q32-table", "seq"])
def test_verify_at(benchmark, case):
    fresh, V, W, alpha = _verify_at_case(case)
    assert fresh().convergent
    benchmark.pedantic(lambda cert: cert.verify_at(alpha, V, W), setup=lambda: ((fresh(),), {}), rounds=100)


def _recheck_case(mode):
    if mode == "cr-table":
        _, V, W = _certificate(mode)
        return lambda: _certificate(mode)[0], V, W
    net, base, unit = _q32_net("closed")
    V = Neighborhood.box((Fraction(1, 5),) * 32)
    if mode == "nr":
        return lambda: converges(net, base, "nr", unit), V, None
    B = Interval(Space.qn(32), -FinVec.constant(32, 2), FinVec.constant(32, 2))
    return lambda: converges(net, base, "br", B), V, None


@pytest.mark.parametrize("mode", ["nr", "br", "cr-table"])
def test_recheck(benchmark, mode):
    fresh, V, W = _recheck_case(mode)
    assert all(fresh().recheck(V, W).values())
    benchmark.pedantic(lambda cert: cert.recheck(V, W), setup=lambda: ((fresh(),), {}), rounds=50)


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


@pytest.mark.parametrize("kind", ["q64"])
def test_is_order_bounded(benchmark, kind):
    T, space = _classify_inputs(kind)
    assert benchmark(is_order_bounded, T, FinVec.constant(space.dim, 1)).spot_checked == 25


def _primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


PRIMES = _primes(2048)


def _spec_text(kind):
    """A Q^64 spec of three matrix homs, as JSON text.

    `repeated` draws entries as the spec-tasks workload does (numerators -9..9
    over denominators 1..8), so each matrix repeats about 140 distinct
    literals; the two `distinct-*` cases hold 4096 distinct literals each,
    fractions over 1..8 or integers below 10^6 in magnitude.  In
    `prime-denominators` each row holds 32 distinct literals 1/p twice, 2048
    primes in all, so the matrix's common denominator has over 25000 bits.
    """
    rng, n = rng_for(23), 64

    def matrix():
        if kind == "prime-denominators":
            rows = []
            for i in range(n):
                row = [f"1/{p}" for p in PRIMES[32 * i:32 * i + 32]] * 2
                rng.shuffle(row)
                rows.append(row)
            return rows
        if kind == "repeated":
            return [[str(v) for v in row] for row in rand_matrix_rows(rng, n)]
        nums = rng.sample(range(-(10**6), 10**6), n * n)
        if kind == "distinct-fractions":
            literals = [f"{p}/{rng.randint(2, 8)}" for p in nums]
        else:
            literals = [str(p) for p in nums]
        return [literals[i * n:(i + 1) * n] for i in range(n)]

    homs = {name: {"kind": "matrix", "rows": matrix()} for name in ("t", "m", "t2")}
    return json.dumps({"space": {"kind": "qn", "dim": n}, "homs": homs})


@pytest.mark.parametrize(
    "kind", ["q64-repeated", "q64-distinct-fractions", "q64-distinct-ints", "q64-prime-denominators"]
)
def test_parse_specdoc(benchmark, kind):
    text = _spec_text(kind.removeprefix("q64-"))
    assert len(benchmark(parse_specdoc, text).homs) == 3


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
