"""Both text formats allow whitespace between any two tokens.

``parse_value`` and ``parse_polynomial`` read with one scanner.  Spaces
and tabs put before, between or after the tokens of a rendered value or
polynomial leave its parse unchanged; only numbers, names and ``sqrt``
stay unbroken, and an exponent's minus sign stays on its digits.
"""
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import (
    LaurentPoly,
    ParseError,
    RadicalBasis,
    parse_polynomial,
    parse_value,
)

B = RadicalBasis((1, 2, 3))
VARS = ("x", "y", "z'")
TOKEN = re.compile(r"sqrt|\d+|[A-Za-z_][\w']*|\S")
WS = st.sampled_from(["", " ", "  ", "\t", " \t "])

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
values = st.lists(fractions, min_size=3, max_size=3).map(B.from_coeffs)
polys = st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * len(VARS)), fractions),
    max_size=4,
).map(lambda terms: LaurentPoly(VARS, tuple(terms)))


def spaced(text, data):
    """text with drawn whitespace around each of its tokens."""
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == text.replace(" ", "")
    out = ""
    for k, tok in enumerate(tokens):
        glued = k >= 2 and tokens[k - 2 : k] == ["^", "-"]
        out += ("" if glued else data.draw(WS)) + tok
    return out + data.draw(WS)


@given(values, st.data())
def test_spaced_values_parse_back(v, data):
    assert parse_value(spaced(v.exact_str(), data), B) == v


@given(polys, st.data())
def test_spaced_polynomials_parse_back(f, data):
    assert parse_polynomial(spaced(f.text(), data), VARS) == f


@pytest.mark.parametrize(
    "text, want",
    [
        ("- sqrt(2)", -B.root(2)),
        ("+ sqrt( 3 )", B.root(3)),
        ("\t7 / 2 * sqrt ( 2 ) - 1 ", B.from_coeffs((-1, Fraction(7, 2), 0))),
    ],
)
def test_spaced_value_rows(text, want):
    assert parse_value(text, B) == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("- x", "-x"),
        ("+ ( x + y ) ^ 2", "x^2 + 2*x*y + y^2"),
        (" z' ^ -2 * 1 / 3 ", "1/3*z'^-2"),
    ],
)
def test_spaced_polynomial_rows(text, want):
    assert parse_polynomial(text, VARS) == parse_polynomial(want, VARS)


@pytest.mark.parametrize("text, pos", [("x^- 1", 3), ("y ^ -\t2", 5)])
def test_an_exponent_sign_stays_on_its_digits(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, VARS)
    assert exc.value.bare_message == "expected an integer"
    assert exc.value.pos == pos
