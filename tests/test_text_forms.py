"""Both text formats allow whitespace between any two tokens.

``parse_value`` and ``parse_polynomial`` read with one scanner.  Spaces
and tabs put before, between or after the tokens of a rendered value or
polynomial leave its parse unchanged; only numbers, names and ``sqrt``
stay unbroken, and an exponent's minus sign stays on its digits.  A value
written as any sum of signed ``n/d*sqrt(r)`` terms, radicands repeated in
any order, parses to the sum of its terms, and every value and
polynomial text the project ships parses under the parser's power limits.
Numbers past the parser's 4,300 digits still print.
"""
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import (
    LaurentPoly,
    ParseError,
    RadicalBasis,
    Value,
    parse_polynomial,
    parse_value,
)
from valgen._golden import CONFIG, GOLDEN, RECIPES
from valgen.cli import _value_json
from valgen.values import MAX_INT_DIGITS, decimal_str

from corpus import first_chain_config, tower_config
from oracles import value_from_coeffs

B = RadicalBasis((1, 2, 3))
VARS = ("x", "y", "z'")
TOKEN = re.compile(r"sqrt|\d+|[A-Za-z_][\w']*|\S")
WS = st.sampled_from(["", " ", "  ", "\t", " \t "])

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
values = st.lists(fractions, min_size=3, max_size=3).map(
    lambda coeffs: value_from_coeffs(B, coeffs)
)
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
        ("\t7 / 2 * sqrt ( 2 ) - 1 ", Value(B, (-2, 7, 0), 2)),
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


# a signed term: (sign, numerator, denominator, radicand, written as a bare
# rational when the radicand is 1)
terms = st.tuples(
    st.sampled_from("+-"),
    st.integers(0, 10**30),
    st.integers(1, 10**6),
    st.sampled_from(B.radicands),
    st.booleans(),
)


def term_text(num, den, rad, bare, data):
    coeff = str(num) if den == 1 and data.draw(st.booleans()) else f"{num}/{den}"
    if rad == 1 and bare:
        return coeff
    if num == den == 1 and data.draw(st.booleans()):
        return f"sqrt({rad})"
    return f"{coeff}*sqrt({rad})"


@given(st.lists(terms, min_size=1, max_size=8), st.booleans(), st.data())
def test_a_sum_of_terms_parses_to_its_value(drawn, cancel, data):
    if cancel:
        # each term again with the other sign, in another order: a sum of 0
        flip = {"+": "-", "-": "+"}
        drawn = drawn + [
            (flip[sign], *rest) for sign, *rest in data.draw(st.permutations(drawn))
        ]
    sums = dict.fromkeys(B.radicands, Fraction(0))
    text = ""
    for k, (sign, num, den, rad, bare) in enumerate(drawn):
        sums[rad] += Fraction(-num if sign == "-" else num, den)
        lead = sign if k or sign == "-" or data.draw(st.booleans()) else ""
        text += lead + term_text(num, den, rad, bare, data)
    v = parse_value(spaced(text, data), B)
    assert v == value_from_coeffs(B, sums.values())
    if not any(sums.values()):
        assert (v.nums, v.den) == ((0,) * B.dim, 1)


def bundled_configs():
    """Every config the project ships or its tests build: the worked
    example, the benchmark's, the tower in tests/ and the corpus."""
    root = Path(__file__).resolve().parent.parent
    paths = [*(root / "perfbench" / "configs").glob("*.json")]
    paths.append(root / "tests" / "tower.json")
    configs = [CONFIG, *(json.loads(p.read_text()) for p in paths)]
    configs += [tower_config(seed) for seed in range(40)]
    for q in (1, 2):
        configs += [first_chain_config(q, seed) for seed in (None, *range(20))]
    return configs


def test_every_shipped_text_parses():
    configs = bundled_configs()
    assert len(configs) > 80
    for cfg in configs:
        basis = RadicalBasis(tuple(cfg["basis"]))
        for text in cfg["ambient_values"]:
            parse_value(text, basis)
        for text in cfg["images"].values():
            parse_polynomial(text, cfg["ambient_vars"])
    basis = RadicalBasis(tuple(CONFIG["basis"]))
    for text in [*GOLDEN["betas"].values(), *GOLDEN["gammas"].values()]:
        parse_value(text, basis)
    for text in GOLDEN["initial_terms"].values():
        parse_polynomial(text, CONFIG["ambient_vars"])
    names = ["x", "y", "z"] + [f"T{k}" for k in range(2, 27)]
    for text in RECIPES.values():
        parse_polynomial(text, names)


@pytest.mark.parametrize(
    "parse,prefix",
    [
        (lambda t: parse_value(t, B), "1 + "),
        (lambda t: parse_value(t, B), "2*sqrt(3) - 1/"),
        (lambda t: parse_polynomial(t, VARS), "x - "),
        (lambda t: parse_polynomial(t, VARS), "x^"),
    ],
)
def test_over_long_integers_are_parse_errors_at_their_start(parse, prefix):
    # int() refuses a str of more than 4300 digits by default; both
    # parsers stop at that length whatever the interpreter allows
    with pytest.raises(ParseError) as exc:
        parse(prefix + "1" * (MAX_INT_DIGITS + 1))
    assert exc.value.pos == len(prefix)
    assert f"exceeds {MAX_INT_DIGITS} digits" in str(exc.value)


def test_the_longest_integers_parse():
    assert MAX_INT_DIGITS == 4300
    n = int("9" * MAX_INT_DIGITS)
    assert parse_value("9" * MAX_INT_DIGITS, B) == B.rational(n)
    assert parse_polynomial("9" * MAX_INT_DIGITS, VARS) == LaurentPoly.constant(
        VARS, n
    )


def read_decimal(text):
    """The int a decimal text denotes, read in chunks short enough for
    int()."""
    digits = text.removeprefix("-")
    assert digits.isdigit() and (digits == "0" or digits[0] != "0"), text
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text.startswith("-") else n


def test_a_polynomial_coefficient_past_4300_digits_prints():
    limit = sys.get_int_max_str_digits()
    text = parse_polynomial("2^60000*u1", ("u1",)).text()
    coeff, var = text.split("*")
    assert var == "u1" and len(coeff) == 18_062
    assert read_decimal(coeff) == 2**60000
    assert sys.get_int_max_str_digits() == limit


def test_a_value_past_4300_digits_prints():
    # two numbers the parser accepts, whose sum has a 28,569-bit
    # denominator; the text form prints it but cannot read it back
    limit = sys.get_int_max_str_digits()
    text = "1/" + "9" * 4300 + " + 1/" + "9" * 4299 + "8"
    v = parse_value(text, RadicalBasis((1, 2)))
    assert v.den.bit_length() == 28_569
    num, den = v.exact_str().split("/")
    assert Fraction(read_decimal(num), read_decimal(den)) == v.coeffs[0]
    row = _value_json(v)
    assert row["text"] == v.exact_str()
    assert row["coeffs"] == [v.exact_str(), "0"]
    with pytest.raises(ParseError):
        parse_value(v.exact_str(), v.basis)
    assert sys.get_int_max_str_digits() == limit


# near a power of ten the low half of the digits starts with zeros
NEAR_POWERS = st.builds(
    lambda k, d: 10**k + d, st.integers(3_900, 21_000), st.integers(-2, 2)
)


@given(
    n=st.integers(-(2**70_000), 2**70_000) | NEAR_POWERS,
    d=st.integers(1, 2**20_000),
)
def test_decimal_str_writes_any_rational(n, d):
    text = decimal_str(n)
    assert read_decimal(text) == n
    if abs(n) < 10**4000:
        assert text == str(n)
    q = Fraction(n, d)
    head, _, tail = decimal_str(q).partition("/")
    assert Fraction(read_decimal(head), read_decimal(tail or "1")) == q
