"""The rational literal reader against `Fraction`, and matrices read from specs.

`read_rat` accepts `[+-]?[0-9]+(/[0-9]+)?` and JSON integers.  On that
grammar its value must equal `Fraction(s)`, and a matrix read from a spec
straight into integer rows must be indistinguishable from `MatrixHom` built
from the same entries as Fractions.  `read_row`, which reads a whole row in
one pass, must agree with reading it literal by literal through `read_rat`:
the same integer row for a good row, the same error for a bad one.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latring import MatrixHom, Space, SpecFileError
from latring.errors import InvalidElement
from latring.scalars import as_rat, read_rat, read_row, reduced_row
from latring.specfile import parse_element, parse_hom, parse_specdoc


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
    n = draw(st.integers(1, 8))
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


# Entries the grammar refuses, each with its own reason: booleans, floats,
# exponents, decimals, signs in the wrong place, a non-ASCII digit, the row
# reader's separator inside a literal, a zero denominator, and digit strings
# beyond the 4300 digits that int() converts.
BAD_ENTRIES = [
    True, False, 0.5, 2.0, None, ["1"],
    "1e3", "1.5", "2E-1", ".5", "3.", "0x10", "1/2.0", "+-1", "1/-2", "", " 3", "3_000", "\u00bd", "\u0663",
    "1\x002", "\x001", "1/\x002", "1/2\x00", "1/0", "-3/000", "9" * 5000, "1/" + "7" * 5000,
]


_INTEGERS = st.integers(-(10**20), 10**20)


@st.composite
def rows(draw) -> list:
    """A row of 1 to 12 entries: literal strings, a mix with JSON integers, or integers only."""
    entry = draw(st.sampled_from([
        literals(),
        st.one_of(literals(), _INTEGERS.map(str), _INTEGERS),
        _INTEGERS.map(str),
        _INTEGERS,
        st.one_of(_INTEGERS, _INTEGERS.map(str)),
    ]))
    return [draw(entry) for _ in range(draw(st.integers(1, 12)))]


def _per_literal_row(row):
    """The reference: the row read literal by literal, over the lcm of the denominators."""
    pairs = [read_rat(v) for v in row]
    d = math.lcm(*(q for _, q in pairs))
    return reduced_row(d, [p * (d // q) for p, q in pairs])


@settings(max_examples=300)
@given(rows())
def test_row_pass_matches_per_literal_reading(row):
    d, nums = read_row(row)
    assert (d, nums) == _per_literal_row(row)
    assert d > 0 and math.gcd(d, *nums) == 1
    assert [F(a, d) for a in nums] == [as_rat(v) for v in row]


def _refusal(read, *args) -> str | None:
    try:
        read(*args)
    except (InvalidElement, SpecFileError) as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(rows(), st.sampled_from(BAD_ENTRIES), st.data())
def test_row_pass_refuses_a_bad_entry_as_per_literal_reading_does(row, bad, data):
    row = list(row)
    row.insert(data.draw(st.integers(0, len(row))), bad)
    expected = _refusal(read_rat, bad)
    assert expected is not None
    assert _refusal(read_row, row) == expected
    # In a spec, the matrix row and a vector entry read alone name the section the same way.
    n = len(row)
    matrix = {"kind": "matrix", "rows": [row] + [["0"] * n] * (n - 1)}
    message = _refusal(parse_element, {"entries": [bad]}, Space.qn(1), "homs.t")
    assert message == f"bad rational literal in 'homs.t': {expected}"
    assert _refusal(parse_hom, matrix, Space.qn(n), "homs.t") == message


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=range(len(BAD_ENTRIES)))
def test_row_pass_refuses_each_bad_entry(bad):
    assert _refusal(read_row, ["1/2", bad, "3"]) == _refusal(read_rat, bad) is not None
