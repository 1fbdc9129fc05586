"""The rational literal reader against `Fraction`, and matrices read from specs.

`read_rat` accepts `[+-]?[0-9]+(/[0-9]+)?` and JSON integers.  On that
grammar its value must equal `Fraction(s)`, and a matrix read from a spec
straight into integer rows must be indistinguishable from `MatrixHom` built
from the same entries as Fractions.
"""

import json
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from latring import MatrixHom
from latring.scalars import as_rat, read_rat
from latring.specfile import parse_specdoc


@st.composite
def literals(draw) -> str:
    """A literal of the grammar: optional sign, leading zeros, numerators of up
    to 300 digits, optional denominators 1..10^6, unreduced fractions and -0."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    pad = "0" * draw(st.integers(0, 3))
    num = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**300)))
    literal = f"{sign}{pad}{num}"
    if draw(st.booleans()):
        den = draw(st.integers(1, 10**6))
        scale = draw(st.sampled_from([1, 1, 2, 6]))  # e.g. 6/4 stays unreduced
        den_pad = "0" * draw(st.integers(0, 2))
        literal = f"{sign}{pad}{num * scale}/{den_pad}{den * scale}"
    return literal


@given(literals())
def test_reader_agrees_with_fraction(literal):
    p, q = read_rat(literal)
    assert q > 0
    assert F(p, q) == F(literal) == as_rat(literal)


@given(st.integers(-(10**300), 10**300))
def test_reader_takes_json_integers(value):
    assert read_rat(value) == (value, 1)


@st.composite
def literal_matrices(draw) -> list[list[str]]:
    n = draw(st.integers(1, 4))
    return [[draw(literals()) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60)
@given(literal_matrices())
def test_spec_matrix_matches_fraction_matrix(rows):
    doc = parse_specdoc(json.dumps({
        "space": {"kind": "qn", "dim": len(rows)},
        "homs": {"t": {"kind": "matrix", "rows": rows}},
    }))
    T = doc.hom("t")
    R = MatrixHom(tuple(tuple(F(s) for s in row) for row in rows))
    # Compare the integer form first, so `rows` is still unbuilt on T.
    assert T.int_rows == R.int_rows
    assert T == R and hash(T) == hash(R)
    assert repr(T) == repr(R)
    assert T.render() == R.render()
    assert T.rows == R.rows
