"""Per-layer micro-benchmarks on pytest-benchmark.

Each benchmark times one call of one layer on fixed seeded inputs: element
lattice ops and the order, matrix and sequence apply, and the vertex oracle.
This directory is outside the tier-1 `testpaths`; run it on its own:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json OUT.json

and keep OUT.json outside the checkout.
"""

from fractions import Fraction

import pytest

from latring import EvSeq, MatrixHom, SeqHom, Space, sup_over_interval_oracle
from latring.sampling import rand_element, rand_matrix_rows, rand_pos_element, rng_for

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
