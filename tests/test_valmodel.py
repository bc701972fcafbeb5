from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgen import (
    InternalConsistencyError,
    LaurentPoly,
    RadicalBasis,
    UnequalValuesError,
    ValuationModel,
    ValuationOfZeroError,
    parse_value,
    validate_model,
    values,
)
from valgen._golden import parsed_example
from valgen.laurent import parse_polynomial
from valgen.valmodel import RING_VARS

import oracles
from conftest import SECOND_CONFIG, make_second_model


def model_from(config):
    basis = RadicalBasis(tuple(config["basis"]))
    names = tuple(config["ambient_vars"])
    values = tuple(parse_value(t, basis) for t in config["ambient_values"])
    images = {
        k: parse_polynomial(v, names) for k, v in config["images"].items()
    }
    return ValuationModel(
        basis=basis, ambient_vars=names, ambient_values=values, images=images
    )


def test_ring_vars():
    assert RING_VARS == ("x", "y", "z")


def test_validate_accepts_good_models(state, second_model):
    assert validate_model(state.model) == []
    assert validate_model(second_model) == []


def test_validate_flags_dependent_values():
    cfg = dict(SECOND_CONFIG, ambient_values=["1", "2", "sqrt(2)"])
    problems = validate_model(model_from(cfg))
    assert any("dependent" in p for p in problems)


def test_validate_flags_dependent_images():
    # z = x*y, though the ambient values are independent
    cfg = dict(SECOND_CONFIG, images={"x": "u1", "y": "u2", "z": "u1*u2"})
    problems = validate_model(model_from(cfg))
    assert problems == ["images of x, y, z are algebraically dependent"]
    # a ramified model with independent images passes
    cfg = dict(
        SECOND_CONFIG,
        ambient_values=["1", "sqrt(2)", "2*sqrt(3) - 1"],
        images={"x": "u1^2", "y": "u2^2", "z": "u1*u2^2 + u3^2"},
    )
    assert validate_model(model_from(cfg)) == []


def test_validate_flags_bad_images():
    cfg = dict(SECOND_CONFIG, images={"x": "u1", "y": "u2"})
    problems = validate_model(model_from(cfg))
    assert any("missing images" in p and "z" in p for p in problems)

    cfg = dict(
        SECOND_CONFIG,
        images={"x": "u1", "y": "u2", "z": "u3", "w": "u1"},
    )
    problems = validate_model(model_from(cfg))
    assert any("unknown variables" in p for p in problems)

    cfg = dict(SECOND_CONFIG, images={"x": "u1", "y": "u2", "z": "0"})
    problems = validate_model(model_from(cfg))
    assert any("zero" in p for p in problems)


def test_validate_flags_nonpositive_values():
    cfg = dict(
        SECOND_CONFIG, images={"x": "u1^-1", "y": "u2", "z": "u3"}
    )
    problems = validate_model(model_from(cfg))
    assert any("positive value" in p for p in problems)


def test_expansion_and_values(state):
    model = state.model
    x, y, z = (parse_polynomial(v, RING_VARS) for v in RING_VARS)
    assert model.expand(x) == model.images["x"]
    assert model.nu(x).exact_str() == "1"
    assert model.nu(y).exact_str() == "sqrt(2)"
    assert model.nu(z).exact_str() == "2*sqrt(2) - 1"
    t2 = parse_polynomial("x*z - y^2", RING_VARS)
    assert model.nu(t2).exact_str() == "5*sqrt(2) - 4"
    assert model.expand(t2).text() == "1*x*z' + 1*x^-4*y^5"
    with pytest.raises(ValuationOfZeroError):
        model.nu(t2 - t2)


def test_expansion_is_multiplicative(state):
    model = state.model
    f = parse_polynomial("x*z - y^2", RING_VARS)
    g = parse_polynomial("x^2 + y*z", RING_VARS)
    assert model.expand(f * g) == model.expand(f) * model.expand(g)
    assert model.nu(f * g) == model.nu(f) + model.nu(g)


def test_initial_term(state):
    model = state.model
    z = parse_polynomial("z", RING_VARS)
    assert model.initial_term(z).text() == "1*x^-1*y^2"
    t2 = parse_polynomial("x*z - y^2", RING_VARS)
    assert model.initial_term(t2).text() == "1*x^-4*y^5"
    # a sum where the smaller value wins outright
    f = parse_polynomial("y + x^3", RING_VARS)
    assert model.initial_term(f).text() == "1*y"


def test_monomial_value(second_model):
    v = second_model.monomial_value((2, 1, 0))
    assert v == second_model.basis.rational(2) + second_model.basis.root(2)


def test_residue_ratio(state):
    model = state.model
    y2 = parse_polynomial("y^2", RING_VARS)
    xz = parse_polynomial("x*z", RING_VARS)
    assert model.residue_ratio(y2, xz) == 1
    assert model.residue_ratio(y2.scale(3), xz) == 3
    assert model.residue_ratio(y2, xz.scale(2)) == Fraction(1, 2)
    with pytest.raises(UnequalValuesError):
        model.residue_ratio(
            parse_polynomial("x", RING_VARS), parse_polynomial("y", RING_VARS)
        )


def test_residue_ratio_is_multiplicative(state):
    model = state.model
    pairs = [
        tuple(parse_polynomial(text, RING_VARS) for text in pair)
        for pair in (("y^2", "x*z"), ("3*y^2", "2*x*z"), ("x^2", "x^2"))
    ]
    for f1, g1 in pairs:
        for f2, g2 in pairs:
            assert model.residue_ratio(f1 * f2, g1 * g2) == model.residue_ratio(
                f1, g1
            ) * model.residue_ratio(f2, g2)


def test_second_model_shape():
    model = make_second_model()
    y = parse_polynomial("y", RING_VARS)
    assert model.nu(y) == model.basis.rational(1)
    assert model.nu(parse_polynomial("y - x", RING_VARS)) == model.basis.root(2)
    assert model.initial_term(y).text() == "1*u1"


def with_values(model, texts):
    """model over the same ambient variables and images, with new values."""
    return ValuationModel(
        basis=model.basis,
        ambient_vars=model.ambient_vars,
        ambient_values=tuple(parse_value(t, model.basis) for t in texts),
        images=model.images,
    )


EXAMPLE = parsed_example()[0]
# unequal, non-unit denominators: the scan works over their lcm, 15
FRACTIONAL = with_values(EXAMPLE, ["1/2", "1/3*sqrt(2)", "1/5*sqrt(51) - 1"])
# 2*value(x) == value(y), so x^2 and y tie
DEPENDENT = with_values(EXAMPLE, ["1", "2", "sqrt(2)"])


def pell_models():
    """(p^2 - 2*q^2, model) with ambient values p, q*sqrt(2), sqrt(51) for
    the Pell pairs with 2^40 <= q < 2^80: |p - q*sqrt(2)| = 1/(p +
    q*sqrt(2)), so the first two values tie within their 64-bit
    enclosures, and which one is smaller alternates."""
    p, q, out = 1, 1, []
    while q < 1 << 80:
        if q >= 1 << 40:
            texts = [str(p), f"{q}*sqrt(2)", "sqrt(51)"]
            out.append((p * p - 2 * q * q, with_values(EXAMPLE, texts)))
        p, q = p + 2 * q, p + q
    return out


PELL_MODELS = pell_models()
NEAR = PELL_MODELS[0][1]


@st.composite
def ambient_polys(draw, vars_=EXAMPLE.ambient_vars):
    terms = draw(
        st.dictionaries(
            st.tuples(*(st.integers(-3, 3) for _ in vars_)),
            st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
                bool
            ),
            min_size=1,
            max_size=6,
        )
    )
    return LaurentPoly(vars_, tuple(terms.items()))


@pytest.mark.parametrize(
    "model", [EXAMPLE, FRACTIONAL, DEPENDENT, NEAR],
    ids=["example", "fractional", "dependent", "near"],
)
@given(ambient_polys())
def test_scan_matches_brute_force_minimum(model, f):
    least, attained = oracles.least_terms(
        f.terms, model.ambient_values, model.basis.zero()
    )
    for exp, _ in f.terms:
        assert model.monomial_value(exp) == oracles.least_terms(
            [(exp, 1)], model.ambient_values, model.basis.zero()
        )[0]
    assert model.nu(f) == least
    if len(attained) > 1:
        with pytest.raises(InternalConsistencyError):
            model.initial_term(f)
    else:
        assert model.initial_term(f).terms == tuple(attained)


def test_scan_refines_only_near_ties(monkeypatch):
    # the per-variable enclosures place the terms; the exact path runs
    # only where two of them overlap
    exact = []
    int_vec_sign = values.int_vec_sign

    def counting(vec, radicands):
        exact.append(vec)
        return int_vec_sign(vec, radicands)

    monkeypatch.setattr(values, "int_vec_sign", counting)
    units = ((1, 0, 0), (0, 1, 0))
    f = LaurentPoly(EXAMPLE.ambient_vars, tuple((e, 1) for e in units))
    for excess, model in PELL_MODELS:
        least = 1 if excess > 0 else 0
        assert model.nu(f) == model.ambient_values[least]
        assert model.initial_term(f).terms == ((units[least], 1),)
    assert len(exact) == 2 * len(PELL_MODELS)
    exact.clear()
    g = EXAMPLE.expand(parse_polynomial("(x + y + z)^4", RING_VARS))
    assert EXAMPLE.nu(g) == 4 * EXAMPLE.nu(EXAMPLE.images["x"])
    assert len(g.terms) > 10 and not exact


def test_scan_ties_raise():
    tied = parse_polynomial("x^2 + 3*y", DEPENDENT.ambient_vars)
    assert DEPENDENT.nu(tied) == DEPENDENT.basis.rational(2)
    with pytest.raises(InternalConsistencyError):
        DEPENDENT.initial_term(tied)
    # a smaller third term breaks the tie
    untied = tied + parse_polynomial("z'", tied.vars)
    assert DEPENDENT.initial_term(untied).text() == "1*z'"


def test_values_of_another_basis_construct_but_do_not_scan():
    other = RadicalBasis((1, 3))
    model = ValuationModel(
        basis=EXAMPLE.basis,
        ambient_vars=EXAMPLE.ambient_vars,
        ambient_values=(other.rational(1), other.root(3), other.rational(2)),
        images=EXAMPLE.images,
    )
    assert any("different radical basis" in p for p in validate_model(model))
    with pytest.raises(ValueError):
        model.nu(model.images["x"])


def test_example_scans_each_member_image_once(monkeypatch):
    # loading the worked example, building it and deriving its outputs
    # scan 108 polynomials of 1,781 terms in all.  A member's image is
    # scanned once, when the member is made, and a survey remainder once
    # per step; residues are read off stored initial terms, monomials that
    # initial_term returns unscanned.  Reading residues off the images of
    # member products scanned 201 polynomials of 4,040 terms.  Pinned, not
    # bounded.
    from valgen.cli import derive_outputs
    from valgen.jumpseq import build_state

    scanned = []
    scan = ValuationModel._scan

    def counting(self, g):
        scanned.append(len(g.terms))
        return scan(self, g)

    monkeypatch.setattr(ValuationModel, "_scan", counting)
    model, bounds, outputs, _ = parsed_example()
    derive_outputs(build_state(model, bounds=bounds), outputs)
    assert (len(scanned), sum(scanned)) == (108, 1_781)
