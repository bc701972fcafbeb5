import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import LaurentPoly, NonInvertibleSubstitution, ParseError
from valgen.laurent import MAX_EXPANSION_BITS, MAX_EXPONENT, parse_polynomial

import oracles

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, vars_=XYZ):
    return parse_polynomial(text, vars_)


HALF = MAX_EXPONENT // 2
# small exponents, and exponents within one of half the field of either
# sign: the sum of two reaches the field's edges, and one past them
WIDE = st.one_of(
    st.integers(-3, 3),
    st.integers(HALF - 1, HALF + 1),
    st.integers(-HALF - 1, -HALF + 1),
)


@st.composite
def polys(
    draw, vars_=XY, max_terms=4, max_denominator=3, exps=st.integers(-3, 3)
):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        exp = tuple(draw(exps) for _ in vars_)
        c = draw(
            st.fractions(
                min_value=-5, max_value=5, max_denominator=max_denominator
            )
        )
        terms.append((exp, c))
    return LaurentPoly(vars_, tuple(terms))


def test_canonical_form():
    # duplicate exponents merge, zero coefficients vanish
    f = LaurentPoly(XY, (((1, 0), Fraction(2)), ((1, 0), Fraction(-2))))
    assert f.is_zero()
    assert f.terms == ()
    g = LaurentPoly(XY, (((0, 1), Fraction(1)), ((0, 1), Fraction(2))))
    assert g == LaurentPoly.monomial(XY, (0, 1), 3)
    assert LaurentPoly.zero(XY).total_degree() is None


@pytest.mark.parametrize(
    "terms",
    [
        (((1.5, 0), 1),),
        (((True, 0), 1),),
        (((1, 0), 0.1),),
        (((1, 0), "1/2"),),
        (((1, 0), True),),
    ],
)
def test_constructor_rejects_non_integer_exponents_and_float_coefficients(
    terms,
):
    # accepted, a float exponent 1.5 would be truncated to x and 0.1 turned
    # into the binary fraction 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        LaurentPoly(XY, terms)


def test_public_constructors_check_their_input():
    with pytest.raises(TypeError):
        LaurentPoly.monomial(XY, (1.0, 0))
    with pytest.raises(TypeError):
        LaurentPoly.constant(XY, 0.5)
    with pytest.raises(TypeError):
        LaurentPoly.variable(XY, "x").scale(0.5)
    # a bool would run as 1
    x, y = LaurentPoly.variable(XY, "x"), LaurentPoly.variable(XY, "y")
    for bad in (
        lambda: LaurentPoly.constant(XY, True),
        lambda: LaurentPoly.monomial(XY, (1, 0), True),
        lambda: x.scale(True),
        lambda: x**True,
        lambda: (x + y) ** True,
    ):
        with pytest.raises(TypeError):
            bad()
    f = LaurentPoly(XY, (((1, 0), 2), ((0, -1), Fraction(1, 3))))
    assert [type(c) for _, c in f.terms] == [Fraction, Fraction]
    assert f.text() == "2*x + 1/3*y^-1"


def test_constructors_and_accessors():
    x = LaurentPoly.variable(XYZ, "x")
    assert x.is_monomial()
    assert oracles.coefficient(x, (1, 0, 0)) == 1
    assert oracles.coefficient(x, (0, 1, 0)) == 0
    one = LaurentPoly.constant(XYZ, 1)
    assert one.total_degree() == 0
    with pytest.raises(ValueError):
        LaurentPoly.variable(XYZ, "w")
    m = LaurentPoly.monomial(XYZ, (-1, 2, 0), Fraction(1, 2))
    assert m.total_degree() == 1
    assert not LaurentPoly.zero(XYZ).is_monomial()


def test_basic_arithmetic():
    assert P("x*z - y^2") == P("x*z") - P("y^2")
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("x") * P("y") == P("x*y")
    assert -P("x - y") == P("y - x")
    f = P("x^2*y*z - x*y^3 - z^3")
    assert f - f == LaurentPoly.zero(XYZ)
    assert P("x") ** 0 == LaurentPoly.constant(XYZ, 1)
    mixed = LaurentPoly.variable(XY, "x")
    with pytest.raises(ValueError):
        P("x") + mixed


def test_negative_powers():
    m = LaurentPoly.monomial(XYZ, (1, 2, 0), Fraction(2))
    inv = m ** -1
    assert m * inv == LaurentPoly.constant(XYZ, 1)
    assert oracles.coefficient(inv, (-1, -2, 0)) == Fraction(1, 2)
    with pytest.raises(NonInvertibleSubstitution):
        P("x + y") ** -1
    # the parser inverts a bracketed monomial
    assert parse_polynomial("(2*x)^-2 + (y)^-1", XY) == P("1/4*x^-2 + y^-1", XY)


def test_text_is_descending_lex():
    f = P("-1*z^5 + 2*x^2*y*z^3 - x^3*y^4")
    assert f.text() == "-1*x^3*y^4 + 2*x^2*y*z^3 - 1*z^5"
    assert P("x*z - y^2").text() == "1*x*z - 1*y^2"
    assert LaurentPoly.zero(XYZ).text() == "0"
    assert str(P("x")) == "1*x"


def test_parse_single_atom():
    # a bare variable must parse; EOF after one atom once tripped the parser
    assert parse_polynomial("x", XY) == LaurentPoly.variable(XY, "x")
    assert parse_polynomial("7", XY) == LaurentPoly.constant(XY, 7)
    assert parse_polynomial("x^-3", XY) == LaurentPoly.monomial(
        XY, (-3, 0), 1
    )


def test_parse_apostrophe_names():
    vars_ = ("x", "y", "z'")
    f = parse_polynomial("x^-1*y^2 + x^-5*y^5 + z'", vars_)
    assert oracles.coefficient(f, (-1, 2, 0)) == 1
    assert oracles.coefficient(f, (0, 0, 1)) == 1
    assert parse_polynomial(f.text(), vars_) == f


def test_parse_matches_hand_expansion():
    f = P("(x*z - y^2)^2 - x*(x^2*z - x*y^2 - y*z^2)")
    g = (P("x*z") - P("y^2")) ** 2 - P("x") * (
        P("x^2*z") - P("x*y^2") - P("y*z^2")
    )
    assert f == g
    assert P("2*(x + y)*(x - y)") == P("2*x^2 - 2*y^2")
    assert P("1/2*x + 1/2*x") == P("x")


@pytest.mark.parametrize(
    "text",
    ["", "x +", "x^", "(x", "w", "x^^2", "x*", "2x", "x y", "x^²", "²*x"],
)
def test_parse_errors_have_positions(text):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, XY)
    assert 0 <= exc.value.pos <= len(text)
    assert "position" in str(exc.value)


@pytest.mark.parametrize(
    "text, pos", [("(x + y)^-1", 0), ("x * (x - x)^-2", 4), ("y*(2)^2*0^-1", 8)]
)
def test_negative_power_of_a_non_monomial_is_a_parse_error(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, XY)
    assert exc.value.bare_message == "negative power of a non-monomial"
    assert exc.value.pos == pos


@pytest.mark.parametrize(
    "text, pos, what",
    [
        ("(u1 + u2 + u3)^40", 15, "power 40"),
        ("(u1 + u2 + u3)^200", 15, "power 200"),
        ("(u1 + u2 + u3)^400", 15, "power 400"),
        ("7 ^-511202", 3, "power -511202"),
        ("u1 + (u2 + u3) ^ 256", 17, "power 256"),
        ("(2*u1)^65536", 7, "power 65536"),
        ("u2*(1/3)^-41350", 9, "power -41350"),
        # nested and chained powers are bounded alike
        ("((u1 + u2 + u3)^32)^4", 20, "power 4"),
        ("(u1 + u2 + u3)^32*(u1 + u2 + u3)^32", 18, "product"),
        ("(u1 + u2 + u3)^6*(u1 + u2 + u3)^6*(u1 + u2 + u3)^6", 34, "product"),
    ],
)
def test_expansions_past_the_limit_are_parse_errors(text, pos, what):
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, ("u1", "u2", "u3"))
    assert time.perf_counter() - start < 1
    assert exc.value.bare_message == f"{what} exceeds {MAX_EXPANSION_BITS} bits"
    assert exc.value.pos == pos


def test_expansions_up_to_the_limit_parse():
    vars_ = ("u1", "u2", "u3")
    assert len(parse_polynomial("(u1 + u2 + u3)^39", vars_).terms) == 820
    assert len(parse_polynomial("(u1 + u2)^255", vars_).terms) == 256
    # 2^65535 has 65,536 bits, 65,535 of them past the leading one
    assert parse_polynomial("(2*u1)^65535", vars_) == LaurentPoly(
        vars_, (((65535, 0, 0), 2**65535),)
    )
    assert parse_polynomial("(1/2)^-65535", vars_) == LaurentPoly.constant(
        vars_, 2**65535
    )
    assert parse_polynomial("(u1 + u2 + u3)^6*(u1 + u2 + u3)^6", vars_) == (
        parse_polynomial("(u1 + u2 + u3)^12", vars_)
    )
    # a coefficient of 1 or -1 takes any power, and zero has no terms
    assert parse_polynomial("(-u1)^-1000001", vars_) == LaurentPoly(
        vars_, (((-1000001, 0, 0), -1),)
    )
    assert parse_polynomial("(u1 - u1)^1000", vars_).is_zero()


@pytest.mark.parametrize(
    "text, pos", [("1/0", 1), ("x + 7/0", 5), ("x + 7 / 0", 5)]
)
def test_zero_denominator_is_reported_after_the_numerator(text, pos):
    # where parse_value reports it too: both read n/d with one scanner
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, XY)
    assert exc.value.bare_message == "zero denominator"
    assert exc.value.pos == pos


@given(polys())
def test_text_round_trip(f):
    assert parse_polynomial(f.text(), XY) == f


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_derivative():
    f = P("x^-1*y^2 + 3*x^2*z - 5")
    assert f.derivative("x") == P("-1*x^-2*y^2 + 6*x*z")
    assert f.derivative("y") == P("2*x^-1*y")
    assert f.derivative("z") == P("3*x^2")
    assert P("7").derivative("x").is_zero()


@given(polys(), polys())
def test_derivative_is_a_derivation(f, g):
    df, dg = f.derivative("x"), g.derivative("x")
    dfg = (f * g).derivative("x")
    assert_canonical(dfg)
    assert dfg == df * g + f * dg
    assert (f + g).derivative("x") == df + dg


def assert_canonical(r):
    """r has exactly the terms the public constructor gives: Fraction
    coefficients, no zeros, descending exponents."""
    again = LaurentPoly(r.vars, r.terms)
    assert r == again
    assert r.terms == again.terms
    assert all(type(c) is Fraction and c != 0 for _, c in r.terms)
    exps = [e for e, _ in r.terms]
    assert exps == sorted(set(exps), reverse=True)


@given(
    polys(max_denominator=7),
    polys(max_denominator=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(min_value=0, max_value=3),
)
def test_arithmetic_matches_fraction_oracle(f, g, q, n):
    product = f * g
    assert dict(product.terms) == oracles.naive_poly_mul(f.terms, g.terms)
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = oracles.naive_poly_mul(power.items(), f.terms)
    assert dict((f**n).terms) == power
    # f - f and f*g - g*f cancel every term
    for r in (product, f + g, f - g, f - f, product - g * f, -f,
              f.scale(q), f**n):
        assert_canonical(r)


def reach(*fs):
    """Per variable, the sum over fs of each one's largest absolute
    exponent: the bound a product of fs is refused past."""
    return [
        sum(max((abs(e[i]) for e, _ in f.terms), default=0) for f in fs)
        for i in range(len(fs[0].vars))
    ]


def assert_matches(got, want):
    """got has exactly the terms of the oracle's dict want: the same terms
    in descending lex order, text, equality and hash as the polynomial the
    public constructor builds from them, and a text that parses back."""
    expected = tuple(sorted(want.items(), reverse=True))
    ref = LaurentPoly(got.vars, expected)
    assert got.terms == expected
    assert got == ref and hash(got) == hash(ref)
    assert got.text() == ref.text()
    assert parse_polynomial(got.text(), got.vars) == got
    assert_canonical(got)


@given(
    polys(XYZ, exps=WIDE),
    polys(XYZ, exps=WIDE),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(min_value=0, max_value=3),
)
def test_packed_kernel_matches_tuple_oracles(f, g, q, n):
    negated = [(e, -c) for e, c in g.terms]
    assert_matches(f + g, oracles.naive_add(f.terms, g.terms))
    assert_matches(f - g, oracles.naive_add(f.terms, negated))
    assert_matches(-g, oracles.naive_add((), negated))
    assert_matches(f.scale(q), oracles.naive_poly_mul(f.terms, [((0, 0, 0), q)]))
    if max(reach(f, g)) > MAX_EXPONENT:
        with pytest.raises(ValueError, match="product could take an exponent"):
            f * g
    else:
        assert_matches(f * g, oracles.naive_poly_mul(f.terms, g.terms))
    if n * max(reach(f)) > MAX_EXPONENT:
        with pytest.raises(ValueError, match="could take an exponent"):
            f**n
    else:
        power = {(0, 0, 0): Fraction(1)}
        for _ in range(n):
            power = oracles.naive_poly_mul(power.items(), f.terms)
        assert_matches(f**n, power)
    for i, var in enumerate(XYZ):
        want = {
            e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in f.terms if e[i]
        }
        assert_matches(f.derivative(var), want)


EDGE = MAX_EXPONENT


@pytest.mark.parametrize("e", [EDGE, -EDGE])
def test_exponents_at_the_field_edge_are_kept(e):
    f = LaurentPoly.monomial(XY, (e, 0), 3)
    assert f.terms == (((e, 0), 3),)
    assert parse_polynomial(f.text(), XY) == f
    assert parse_polynomial(f"3*x^{e}", XY) == f
    assert f * LaurentPoly.monomial(XY, (0, -e)) == LaurentPoly(
        XY, (((e, -e), 3),)
    )
    assert f**-1 == LaurentPoly.monomial(XY, (-e, 0), Fraction(1, 3))
    # a power whose bound fits, at twice half the field, is computed
    h = HALF if e > 0 else -HALF
    assert LaurentPoly.monomial(XY, (h, 0)) ** 2 == LaurentPoly.monomial(
        XY, (2 * h, 0)
    )


@pytest.mark.parametrize("e", [EDGE + 1, -EDGE - 1, 10**20, -(10**20)])
def test_exponents_past_the_field_are_refused(e):
    with pytest.raises(ValueError, match="a term could take an exponent past"):
        LaurentPoly(XY, (((e, 0), 1),))
    with pytest.raises(ValueError, match="a term could take an exponent past"):
        LaurentPoly.monomial(XY, (0, e))
    # the parser refuses the power at its exponent, not at the base
    with pytest.raises(ParseError) as exc:
        parse_polynomial(f"y + x^{e}", XY)
    assert exc.value.pos == 6
    assert "could take an exponent past" in exc.value.bare_message


@pytest.mark.parametrize(
    "text, pos, what",
    [
        ("x^2147483647*x", 13, "product"),
        ("y*x^-2147483647*x^-1", 16, "product"),
        ("(x^1073741824)^2", 15, "power 2"),
        ("(x*y^-1073741824)^-2", 18, "power -2"),
        ("u1^99999999999999999999", 3, "power 99999999999999999999"),
    ],
)
def test_products_and_powers_past_the_field_are_parse_errors(text, pos, what):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, ("x", "y", "u1"))
    assert exc.value.pos == pos
    assert exc.value.bare_message == (
        f"{what} could take an exponent past +-{MAX_EXPONENT}"
    )


def test_operators_refuse_exponents_past_the_field():
    top = LaurentPoly.monomial(XY, (EDGE, 0))
    x = LaurentPoly.variable(XY, "x")
    with pytest.raises(ValueError, match="product"):
        top * x
    with pytest.raises(ValueError, match="product"):
        (top + x) ** 2
    with pytest.raises(ValueError, match="power -2"):
        top**-2
    # the bounds are the operands', so a product is refused even where
    # its exponents would cancel
    with pytest.raises(ValueError, match="product"):
        top * top**-1
    with pytest.raises(ValueError, match="derivative"):
        (top**-1).derivative("x")
    # a derivative that only lowers positive exponents stays in the field
    assert top.derivative("y").is_zero()
    assert LaurentPoly.monomial(XY, (EDGE - 1, 0)).derivative("x") == (
        LaurentPoly.monomial(XY, (EDGE - 2, 0), EDGE - 1)
    )


def test_substitution_computes_each_image_power_once(monkeypatch):
    calls = []
    power = LaurentPoly.__pow__

    def counted(f, n):
        calls.append((f.text(), n))
        return power(f, n)

    images = {"x": P("x + y"), "y": P("y"), "z": P("z - 1")}
    want = P("(x + y)^2*y + (x + y)^2*(z - 1) + (x + y)^2 + y*(z - 1)")
    f = P("x^2*y + x^2*z + x^2 + y*z")
    monkeypatch.setattr(LaurentPoly, "__pow__", counted)
    got = f.substitute(images)
    assert got == want
    assert sorted(calls) == [("1*x + 1*y", 2), ("1*y", 1), ("1*z - 1", 1)]


@given(polys(max_terms=3), polys(max_terms=3))
def test_substitution_is_multiplicative(f, g):
    images = {
        "x": parse_polynomial("u + v", ("u", "v")),
        "y": parse_polynomial("u*v", ("u", "v")),
    }
    try:
        fs = f.substitute(images)
        gs = g.substitute(images)
    except NonInvertibleSubstitution:
        return  # negative power of x + v is out of scope here
    assert (f * g).substitute(images) == fs * gs


@st.composite
def images(draw, vars_=XY, target=("u", "v")):
    """An image per variable over target: a monomial, whose exponents
    may be negative, or any polynomial with up to three terms."""
    out = {}
    for name in vars_:
        if draw(st.booleans()):
            exp = tuple(draw(st.integers(-2, 2)) for _ in target)
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
            out[name] = LaurentPoly.monomial(target, exp, c or 1)
        else:
            out[name] = draw(polys(vars_=target, max_terms=3))
    return out


@given(polys(), images())
def test_substitution_matches_term_by_term_oracle(f, imgs):
    want = oracles.naive_substitute(
        f.terms, f.vars, {name: img.terms for name, img in imgs.items()}, 2
    )
    if want is None:
        # a negative power of an image with more than one term
        with pytest.raises(NonInvertibleSubstitution):
            f.substitute(imgs)
        return
    got = f.substitute(imgs)
    assert got.vars == ("u", "v")
    assert dict(got.terms) == want
    assert_canonical(got)


def test_substitution_rules():
    images = {"x": P("y"), "y": P("x"), "z": P("z")}
    assert P("x^2*y").substitute(images) == P("y^2*x")
    with pytest.raises(NonInvertibleSubstitution):
        parse_polynomial("x^-1", XY).substitute(
            {"x": P("x + y"), "y": P("y")}
        )
    with pytest.raises(ValueError):
        P("x").substitute({})
    with pytest.raises(ValueError):
        parse_polynomial("x*y", XY).substitute({"x": P("x")})
    assert P("x + z").substitute(images) == P("y + z")
