"""Both text formats allow whitespace between any two tokens.

``parse_value`` and ``parse_polynomial`` read with one scanner.  Spaces
and tabs put before, between or after the tokens of a rendered value or
polynomial leave its parse unchanged; only numbers, names and ``sqrt``
stay unbroken, and an exponent's minus sign stays on its digits.  A value
written as any sum of signed ``n/d*sqrt(r)`` terms, radicands repeated in
any order, parses to the sum of its terms, and every value and
polynomial text the project ships parses under the parser's power limits.
"""
import json
import re
from fractions import Fraction
from pathlib import Path

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
from valgen._golden import CONFIG, GOLDEN, RECIPES
from valgen.values import MAX_INT_DIGITS

from corpus import first_chain_config, tower_config

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
    assert v == B.from_coeffs(sums.values())
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
