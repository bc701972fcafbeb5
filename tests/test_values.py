import itertools
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valgen import ParseError, RadicalBasis, Value, parse_value, values
from valgen.values import combination

from oracles import scan_value, value_from_coeffs
from test_text_forms import B as B123, spaced, values as values123

B = RadicalBasis((1, 2, 51))


def decimal_eval(v, digits=80):
    """Independent sign oracle: evaluate with 80-digit decimal arithmetic."""
    getcontext().prec = digits
    total = Decimal(0)
    for c, r in zip(v.coeffs, v.basis.radicands):
        term = Decimal(c.numerator) / Decimal(c.denominator)
        total += term * Decimal(r).sqrt()
    return total


small_fraction = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
coeff_vectors = st.tuples(small_fraction, small_fraction, small_fraction)


def test_basis_validation():
    with pytest.raises(ValueError):
        RadicalBasis((2, 3))
    with pytest.raises(ValueError):
        RadicalBasis((1, 3, 2))
    with pytest.raises(ValueError):
        RadicalBasis((1, 12))
    with pytest.raises(ValueError):
        RadicalBasis(())
    # no silent int(): 2.5 would become 2 and True would become 1
    with pytest.raises(TypeError):
        RadicalBasis((1, 2.5, 3.9))
    with pytest.raises(TypeError):
        RadicalBasis((True, 2))
    assert RadicalBasis((1,)).dim == 1
    assert RadicalBasis([1, 2]).radicands == (1, 2)
    assert B.index_of(51) == 2
    with pytest.raises(ValueError):
        B.index_of(7)


def test_a_radicand_above_2_32_is_refused_before_its_squarefree_test(
    monkeypatch,
):
    # trial division up to the square root of a larger radicand could run
    # for hours; the bound is checked first
    tested = []
    squarefree = values._is_squarefree
    monkeypatch.setattr(
        values, "_is_squarefree", lambda r: tested.append(r) or squarefree(r)
    )
    for big in (2**32 + 1, 100000000000000000039, 10**4299):
        with pytest.raises(ValueError) as info:
            RadicalBasis((1, 2, big))
        assert str(info.value) == f"radicand {big} exceeds 2**32"
    assert tested == [1, 2] * 3
    # the largest prime below the bound passes
    assert RadicalBasis((1, 4294967291)).radicands == (1, 4294967291)


def test_value_validation():
    # no silent bool or float: gcd would take True as 1, and fail on 2.0
    # with a message that names no argument
    with pytest.raises(TypeError, match="nums"):
        Value(RadicalBasis((1, 2)), (True, 2), 1)
    with pytest.raises(TypeError, match="nums"):
        Value(RadicalBasis((1, 2)), (1, 2.0), 1)
    with pytest.raises(TypeError, match="den"):
        Value(RadicalBasis((1, 2)), (1, 2), 2.0)
    with pytest.raises(TypeError, match="den"):
        Value(RadicalBasis((1, 2)), (1, 2), True)
    with pytest.raises(ValueError):
        Value(RadicalBasis((1, 2)), (1, 2), 0)
    assert Value(RadicalBasis((1, 2)), (2, -4), -6).nums == (-1, 2)


def test_constructors():
    assert B.zero().is_zero()
    assert not B.zero()
    assert B.rational(Fraction(3, 2)).coeffs == (Fraction(3, 2), 0, 0)
    r = B.root(2, Fraction(5))
    assert r.coeffs == (Fraction(0), Fraction(5), Fraction(0))
    assert Value(B, (1, 6, 0), 2) == B.rational(Fraction(1, 2)) + B.root(2, 3)
    with pytest.raises(ValueError):
        Value(B, (1, 2), 1)
    with pytest.raises(ValueError):
        B.root(7)


@pytest.mark.parametrize(
    "make, name",
    [
        # Fraction() would take 0.1 as 3602879701896397/36028797018963968
        (lambda: B.rational(0.1), "q"),
        (lambda: B.rational("0.1"), "q"),
        (lambda: B.rational(Decimal("0.1")), "q"),
        (lambda: B.rational(True), "q"),
        (lambda: B.root(2, 0.5), "coeff"),
        (lambda: B.root(2, True), "coeff"),
        # equality would find 2.0 and True among the radicands
        (lambda: B.root(2.0), "radicand"),
        (lambda: B.root(True), "radicand"),
    ],
)
def test_constructors_refuse_inexact_scalars(make, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        make()


def test_scaling_refuses_a_bool():
    a = B.root(2)
    assert a * 1 == 1 * a == a
    with pytest.raises(TypeError):
        a * True
    with pytest.raises(TypeError):
        True * a
    with pytest.raises(TypeError):
        a * 0.5


def test_arithmetic():
    a = parse_value("2*sqrt(2) - 1", B)
    b = parse_value("1 + sqrt(51)", B)
    assert (a + b).coeffs == (Fraction(0), Fraction(2), Fraction(1))
    assert (a - a).is_zero()
    assert (-a).coeffs == (Fraction(1), Fraction(-2), Fraction(0))
    assert a * 3 == 3 * a
    assert (a * Fraction(1, 2)).coeffs == (
        Fraction(-1, 2),
        Fraction(1),
        Fraction(0),
    )
    other = RadicalBasis((1, 2))
    with pytest.raises(ValueError):
        a + other.rational(1)
    with pytest.raises(ValueError):
        a < other.rational(1)


def test_canonical_form():
    a = Value(B, (2, 4, 0), 4)
    b = Value(B, (3, 6, 0), 6)
    assert a == b
    assert hash(a) == hash(b)
    for v in (a, -a, a * Fraction(-4, 6), a - a, B.root(51, Fraction(-3, 9))):
        assert v.den > 0
        assert gcd(v.den, *v.nums) == 1
    assert B.zero().den == 1
    assert (a - b).den == 1
    assert Value(B, (2, -4, 6), -4) == Value(B, (-1, 2, -3), 2)
    with pytest.raises(ValueError):
        Value(B, (1, 2, 3), 0)
    with pytest.raises(ValueError):
        Value(B, (1, 2), 1)


@pytest.mark.parametrize("nums, den", [((1, 2, 3), 1), ((2, 4, 6), 2), ((1, 2, 3), -1)])
def test_list_numerators_are_stored_as_a_tuple(nums, den):
    # with nothing to reduce or flip, a list used to be kept as given:
    # unhashable, and unequal to the same numerators as a tuple
    from_list = Value(B, list(nums), den)
    assert type(from_list.nums) is tuple
    assert from_list == Value(B, nums, den)
    assert hash(from_list) == hash(Value(B, nums, den))
    assert {from_list: 1}[Value(B, nums, den)] == 1


small_counts = st.tuples(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)


@given(coeff_vectors, coeff_vectors, small_fraction, small_counts)
def test_arithmetic_matches_fractions(ca, cb, q, counts):
    a = value_from_coeffs(B, ca)
    b = value_from_coeffs(B, cb)
    fa, fb = a.coeffs, b.coeffs
    assert fa == tuple(map(Fraction, ca))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(fa, fb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(fa, fb))
    assert (a * q).coeffs == tuple(x * q for x in fa)
    n = q.numerator
    assert (a * n).coeffs == tuple(x * n for x in fa)
    m, k = counts
    assert combination(counts, [a, b], B).coeffs == tuple(
        m * x + k * y for x, y in zip(fa, fb)
    )


def test_sign_known_cases():
    assert parse_value("2*sqrt(2) - 1", B).sign() == 1
    assert parse_value("sqrt(2) - 2", B).sign() == -1
    assert B.zero().sign() == 0
    assert parse_value("sqrt(51) - 5 - 2*sqrt(2)", B).sign() == -1


def test_sign_near_cancellation():
    # continued-fraction convergents land on alternating sides of the
    # root, so these force the enclosure to refine past its starting
    # precision; expected signs double-checked against the decimal oracle
    cases = [
        (B.root(2) - B.rational(Fraction(99, 70)), -1),
        (B.root(2) - B.rational(Fraction(239, 169)), 1),
        (B.root(2) - B.rational(Fraction(114243, 80782)), -1),
        (B.root(51) - B.rational(Fraction(707, 99)), 1),
        (B.root(51) - B.rational(Fraction(4999, 700)), -1),
        (B.root(51) - B.root(2, Fraction(101, 20)), -1),
    ]
    for value, expected in cases:
        assert int(decimal_eval(value).compare(Decimal(0))) == expected
        assert value.sign() == expected


@given(coeff_vectors)
def test_sign_matches_decimal_oracle(coeffs):
    v = value_from_coeffs(B, coeffs)
    approx = decimal_eval(v)
    if approx == 0:
        assert v.sign() == 0
    else:
        assert v.sign() == (1 if approx > 0 else -1)


@given(coeff_vectors)
def test_sign_zero_iff_zero_coeffs(coeffs):
    v = value_from_coeffs(B, coeffs)
    assert (v.sign() == 0) == all(c == 0 for c in coeffs)
    assert (-v).sign() == -v.sign()


@given(coeff_vectors, coeff_vectors, coeff_vectors)
def test_order_is_total_and_transitive(ca, cb, cc):
    a, b, c = (value_from_coeffs(B, x) for x in (ca, cb, cc))
    assert (a < b) or (b < a) or (a == b)
    assert not (a < b and b < a)
    if a < b and b < c:
        assert a < c
    assert (a <= b) == (a < b or a == b)
    assert (a > b) == (b < a)


@given(coeff_vectors, coeff_vectors)
def test_order_agrees_with_the_difference_sign(ca, cb):
    a, b = value_from_coeffs(B, ca), value_from_coeffs(B, cb)
    # the operators cross-multiply numerators only when denominators differ
    assume(a.den != b.den)
    d = (a - b).sign()
    assert (a < b, a <= b, a > b, a >= b) == (d < 0, d <= 0, d > 0, d >= 0)


@given(coeff_vectors)
def test_exact_text_round_trip(coeffs):
    v = value_from_coeffs(B, coeffs)
    assert parse_value(v.exact_str(), B) == v


def test_text_forms():
    assert parse_value("2*sqrt(2) - 1", B).exact_str() == "2*sqrt(2) - 1"
    assert parse_value("1 - sqrt(2)", B).exact_str() == "-sqrt(2) + 1"
    assert B.zero().exact_str() == "0"
    assert parse_value("2*sqrt(2) - 1", B).approx_str() == "1.82842712475"
    assert parse_value("2*sqrt(2) - 1", B).approx_str(4) == "1.828"
    assert str(B.rational(Fraction(1, 3))) == "1/3"
    v = Value(B, (21, -45, 14), 63)
    assert v.approx_str() == "0.910164884013"
    assert v.exact_str() == "-5/7*sqrt(2) + 2/9*sqrt(51) + 1/3"


def test_parse_accepts_flexible_forms():
    assert parse_value("- 1", B) == B.rational(-1)
    assert parse_value("7/2", B) == B.rational(Fraction(7, 2))
    assert parse_value("sqrt(2)", B) == B.root(2)
    assert parse_value("1/2*sqrt(51)", B) == B.root(51, Fraction(1, 2))
    for text in ("2*sqrt(2)", "2 * sqrt(2)"):
        assert parse_value(text, B) == B.root(2, 2)
    assert parse_value("- sqrt(2)", B) == B.root(2, -1)
    assert parse_value("  3 + 0*sqrt(2) ", B) == B.rational(3)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("   ", 3),
        ("sqrt(7)", 5),
        ("1 + ", 4),
        ("2*x", 2),
        ("sqrt(2", 6),
        ("sqrt 2", 5),
        ("1 ++ 2", 3),
        ("2 sqrt(2)", 2),
        ("7/0", 1),
        # int() reads only decimal digits, isdigit() passes superscripts
        ("²", 0),
        ("1/²", 2),
        ("sqrt(²)", 5),
        # only '*' joins a rational to sqrt, as in the polynomial grammar
        ("2sqrt(2)", 1),
    ],
)
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_value(text, B)
    assert exc.value.pos == pos
    assert f"position {pos}" in str(exc.value)


def parse_outcome(parse, text, basis):
    """What parse makes of text: a Value, or a ParseError's message and
    position."""
    try:
        return parse(text, basis)
    except ParseError as err:
        return err.bare_message, err.pos


# the characters of the edits: the tokens' own, whitespace, and a digit
# that isdigit passes and int() refuses
EDIT_CHARS = st.sampled_from([*"0123456789+-*/()sqrt", " ", "\t", "²"])


def spaced_value(data):
    """A random Value's text, with drawn whitespace around its tokens."""
    return spaced(data.draw(values123).exact_str(), data)


def agrees_with_the_scanner_walk(text):
    """Assert that parse_value makes of text what scan_value makes of it,
    and return that."""
    want = parse_outcome(scan_value, text, B123)
    assert parse_outcome(parse_value, text, B123) == want, repr(text)
    return want


@given(st.data())
def test_spaced_values_parse_as_the_scanner_walk_reads_them(data):
    assert isinstance(agrees_with_the_scanner_walk(spaced_value(data)), Value)


@settings(max_examples=500)
@given(st.data())
def test_edited_values_parse_as_the_scanner_walk_reads_them(data):
    text = spaced_value(data)
    at = data.draw(st.integers(0, len(text)))
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        text = text[:at] + data.draw(EDIT_CHARS) + text[at:]
    else:
        new = "" if kind == "delete" else data.draw(EDIT_CHARS)
        text = text[:at] + new + text[at + 1 :]
    agrees_with_the_scanner_walk(text)


def test_module_level_helpers():
    a = B.rational(1)
    b = B.root(2)
    assert combination((2, 1), [a, b], B) == B.rational(2) + b
    assert combination((), [], B).is_zero()
    with pytest.raises(ValueError):
        combination((1, 1), [a, RadicalBasis((1, 2)).root(2)], B)
