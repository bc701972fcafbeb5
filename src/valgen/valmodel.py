"""The valuation itself: ambient coordinates with fixed values.

A model names some ambient variables, assigns each a positive exact
Value, and maps the three ring variables x, y, z to Laurent polynomials
in the ambient variables.  Because the ambient values are linearly
independent over the rationals, every ambient monomial gets a distinct
value, so the value of a nonzero polynomial is the minimum over its
monomials and is attained exactly once.  That unique smallest monomial
is the polynomial's initial term, and ratios of initial coefficients are
the residues the chain construction divides by.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import (
    InternalConsistencyError,
    UnequalValuesError,
    ValuationOfZeroError,
)
from .laurent import LaurentPoly
from .values import RadicalBasis, Value, combination

RING_VARS = ("x", "y", "z")


def _rank_over_q(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class ValuationModel:
    basis: RadicalBasis
    ambient_vars: tuple[str, ...]
    ambient_values: tuple[Value, ...]
    images: Mapping[str, LaurentPoly]

    # expansion cache, left out of equality and hashing
    _expand_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambient_vars", tuple(self.ambient_vars))
        object.__setattr__(self, "ambient_values", tuple(self.ambient_values))
        object.__setattr__(self, "images", dict(self.images))
        if len(self.ambient_vars) != len(self.ambient_values):
            raise ValueError("one value per ambient variable, please")

    def __hash__(self) -> int:
        return hash((self.basis, self.ambient_vars, self.ambient_values))

    # -- expansion ----------------------------------------------------

    def ring_poly(self, text: str) -> LaurentPoly:
        from .laurent import parse_polynomial

        return parse_polynomial(text, RING_VARS)

    def expand(self, f: LaurentPoly) -> LaurentPoly:
        """Rewrite a polynomial in x, y, z as ambient coordinates."""
        if f.vars == self.ambient_vars:
            return f
        if f.vars != RING_VARS:
            raise ValueError(
                f"expected variables {RING_VARS} or {self.ambient_vars}, "
                f"got {f.vars}"
            )
        got = self._expand_cache.get(f)
        if got is None:
            got = self._expand_cache[f] = f.substitute(self.images)
        return got

    def monomial_value(self, exponents: tuple[int, ...]) -> Value:
        return combination(exponents, self.ambient_values, self.basis)

    # -- the valuation ------------------------------------------------

    def nu(self, f: LaurentPoly) -> Value:
        """The value of a nonzero polynomial: min over its ambient monomials."""
        g = self.expand(f)
        if g.is_zero():
            raise ValuationOfZeroError("the zero polynomial has no value")
        best = None
        for exp, _ in g.terms:
            v = self.monomial_value(exp)
            if best is None or v < best:
                best = v
        return best

    def initial_term(self, f: LaurentPoly) -> LaurentPoly:
        """The unique smallest-value ambient monomial of f, with coefficient."""
        g = self.expand(f)
        if g.is_zero():
            raise ValuationOfZeroError("the zero polynomial has no initial term")
        best = None
        best_term = None
        tied = False
        for exp, c in g.terms:
            v = self.monomial_value(exp)
            if best is None or v < best:
                best = v
                best_term = (exp, c)
                tied = False
            elif v == best:
                tied = True
        if tied:
            # impossible when ambient values are linearly independent
            raise InternalConsistencyError(
                "two ambient monomials share the minimal value"
            )
        return LaurentPoly(self.ambient_vars, (best_term,))

    def residue_ratio(self, f: LaurentPoly, g: LaurentPoly) -> Fraction:
        """Ratio of initial coefficients of two polynomials of equal value."""
        tf = self.initial_term(f)
        tg = self.initial_term(g)
        ef, cf = tf.terms[0]
        eg, cg = tg.terms[0]
        if self.monomial_value(ef) != self.monomial_value(eg):
            raise UnequalValuesError(
                f"values differ: {self.monomial_value(ef)} vs "
                f"{self.monomial_value(eg)}"
            )
        if ef != eg:
            raise InternalConsistencyError(
                "equal values on distinct ambient monomials"
            )
        return cf / cg


def validate_model(model: ValuationModel) -> list[str]:
    """Diagnostics for a model; an empty list means it is usable."""
    problems: list[str] = []
    for name, v in zip(model.ambient_vars, model.ambient_values):
        if v.basis != model.basis:
            problems.append(f"value of {name} uses a different radical basis")
            return problems
        if v.sign() <= 0:
            problems.append(f"ambient variable {name} must have positive value")
    rows = [list(v.coeffs) for v in model.ambient_values]
    if rows and _rank_over_q(rows) < len(rows):
        problems.append(
            "ambient values are linearly dependent over the rationals; "
            "monomial values would collide"
        )
    missing = [v for v in RING_VARS if v not in model.images]
    extra = [v for v in model.images if v not in RING_VARS]
    if missing:
        problems.append(f"missing images for: {', '.join(missing)}")
    if extra:
        problems.append(f"images given for unknown variables: {', '.join(extra)}")
    if missing or extra:
        return problems
    for v in RING_VARS:
        img = model.images[v]
        if img.vars != model.ambient_vars:
            problems.append(
                f"image of {v} is over {img.vars}, expected {model.ambient_vars}"
            )
            return problems
        if img.is_zero():
            problems.append(f"image of {v} is zero")
    if problems:
        return problems
    vx, vy, vz = (model.nu(model.images[v]) for v in RING_VARS)
    if not vx.sign() > 0:
        problems.append("x must have positive value")
    if vx > vy or vy > vz:
        problems.append(
            "ring variable values must be ordered: value(x) <= value(y) "
            "<= value(z)"
        )
    return problems
