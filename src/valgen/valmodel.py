"""The valuation itself: ambient coordinates with fixed values.

A model names some ambient variables, assigns each a positive exact
Value, and maps the three ring variables x, y, z to Laurent polynomials
in the ambient variables.  Because the ambient values are linearly
independent over the rationals, every ambient monomial gets a distinct
value, so the value of a nonzero polynomial is the minimum over its
monomials and is attained exactly once.  That unique smallest monomial
is the polynomial's initial term, and ratios of initial coefficients are
the residues the chain construction divides by.

The model keeps its ambient values once more, as integer numerator
columns over one common denominator.  The value of a monomial is then a
few integer dot products, and ``nu`` and ``initial_term`` share one scan
over the exponents read off the polynomial's keys (``exponents``) that
keeps the running minimum as integer numerators and builds a single
Value, for the result.  The scan places each term by a 64-bit enclosure
summed from per-variable enclosures and compares numerators exactly only
when two enclosures overlap.

Substitution is a ring homomorphism, so a build never expands a chain
member: each chain record keeps its ambient image next to its ring form,
and the image of a product of members is the product of their images.
``expand`` keeps no cache; ``substitute`` uses only the ring operators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Mapping

from .errors import (
    InternalConsistencyError,
    UnequalValuesError,
    ValuationOfZeroError,
)
from .grouplat import column_echelon
from .laurent import LaurentPoly
from .values import (
    FIXED_BITS,
    RadicalBasis,
    Value,
    int_vec_bounds,
    over_common_den,
    sign_within,
)

RING_VARS = ("x", "y", "z")


def _det3(m: list[list[LaurentPoly]]) -> LaurentPoly:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class ValuationModel:
    basis: RadicalBasis
    ambient_vars: tuple[str, ...]
    ambient_values: tuple[Value, ...]
    images: Mapping[str, LaurentPoly]
    # the ambient values as integer numerators over _den, one tuple per
    # basis radical with one entry per ambient variable; None when some
    # value carries another basis (validate_model reports that)
    _den: int = field(init=False, repr=False, compare=False)
    _columns: tuple[tuple[int, ...], ...] | None = field(
        init=False, repr=False, compare=False
    )
    # per ambient variable, the lower end lo and width hi - lo of its
    # numerators' int_vec_bounds at FIXED_BITS; () with _columns None
    _enclosures: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ambient_vars", tuple(self.ambient_vars))
        object.__setattr__(self, "ambient_values", tuple(self.ambient_values))
        object.__setattr__(self, "images", dict(self.images))
        if len(self.ambient_vars) != len(self.ambient_values):
            raise ValueError("one value per ambient variable, please")
        try:
            den, scaled = over_common_den(self.ambient_values, self.basis)
            columns = tuple(zip(*scaled))
        except ValueError:
            den, scaled, columns = 1, (), None
        rads = self.basis.radicands
        bounds = [int_vec_bounds(v, rads, FIXED_BITS) for v in scaled]
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(
            self,
            "_enclosures",
            (tuple(lo for lo, _ in bounds), tuple(hi - lo for lo, hi in bounds)),
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.ambient_vars, self.ambient_values))

    # -- expansion ----------------------------------------------------

    def expand(self, f: LaurentPoly) -> LaurentPoly:
        """Rewrite a polynomial in x, y, z as ambient coordinates.

        An ambient polynomial is returned unchanged.  Nothing is cached:
        builds pass the images kept on the chain records, so only ring
        forms from outside a build are substituted here.
        """
        if f.vars == self.ambient_vars:
            return f
        if f.vars != RING_VARS:
            raise ValueError(
                f"expected variables {RING_VARS} or {self.ambient_vars}, "
                f"got {f.vars}"
            )
        return f.substitute(self.images)

    def _numerators(self, exponents: tuple[int, ...]) -> tuple[int, ...]:
        """The value of an ambient monomial as integer numerators over _den."""
        if self._columns is None:
            raise ValueError("values carry different radical bases")
        return tuple(sum(map(mul, exponents, col)) for col in self._columns)

    def monomial_value(self, exponents: tuple[int, ...]) -> Value:
        return Value(self.basis, self._numerators(exponents), self._den)

    # -- the valuation ------------------------------------------------

    def _scan(self, g: LaurentPoly) -> tuple[int, tuple[int, ...], bool]:
        """Position of the smallest-value term of a nonzero ambient g, the
        numerators of its value over _den, and whether another term ties
        with it.

        A term with exponents e lies within W of sum(e_a * lo_a), where W
        is sum(|e_a| * width_a) over the ambient enclosures, so most terms
        are placed against the running minimum by their bounds alone, and
        ``sign_within`` refines only when the bounds overlap."""
        radicands = self.basis.radicands
        los, widths = self._enclosures
        first, *rest = g.exponents()
        at, best, tied = 0, self._numerators(first), False
        best_lo, best_hi = int_vec_bounds(best, radicands, FIXED_BITS)
        for i, exp in enumerate(rest, 1):
            mid = sum(map(mul, exp, los))
            w = sum(map(mul, map(abs, exp), widths))
            if mid - w > best_hi:
                continue
            nums = self._numerators(exp)
            s = sign_within(
                tuple(map(sub, nums, best)),
                mid - w - best_hi,
                mid + w - best_lo,
                radicands,
            )
            if s < 0:
                at, best, tied = i, nums, False
                best_lo, best_hi = mid - w, mid + w
            elif s == 0:
                tied = True
        return at, best, tied

    def nu(self, f: LaurentPoly) -> Value:
        """The value of a nonzero polynomial: min over its ambient monomials."""
        g = self.expand(f)
        if g.is_zero():
            raise ValuationOfZeroError("the zero polynomial has no value")
        _, nums, _ = self._scan(g)
        return Value(self.basis, nums, self._den)

    def initial_term(self, f: LaurentPoly) -> LaurentPoly:
        """The unique smallest-value ambient monomial of f, with coefficient."""
        g = self.expand(f)
        if g.is_zero():
            raise ValuationOfZeroError("the zero polynomial has no initial term")
        at, _, tied = self._scan(g)
        if tied:
            # impossible when ambient values are linearly independent
            raise InternalConsistencyError(
                "two ambient monomials share the minimal value"
            )
        return g.term(at)

    def residue_ratio(self, f: LaurentPoly, g: LaurentPoly) -> Fraction:
        """Ratio of initial coefficients of two polynomials of equal value."""
        tf = self.initial_term(f)
        tg = self.initial_term(g)
        (ef,), (eg,) = tf.exponents(), tg.exponents()
        if ef != eg:
            vf, vg = self.monomial_value(ef), self.monomial_value(eg)
            if vf != vg:
                raise UnequalValuesError(f"values differ: {vf} vs {vg}")
            raise InternalConsistencyError(
                "equal values on distinct ambient monomials"
            )
        return tf.coefficients()[0] / tg.coefficients()[0]


def validate_model(model: ValuationModel) -> list[str]:
    """Diagnostics for a model; an empty list means it is usable."""
    problems: list[str] = []
    for name, v in zip(model.ambient_vars, model.ambient_values):
        if v.basis != model.basis:
            problems.append(f"value of {name} uses a different radical basis")
            return problems
        if v.sign() <= 0:
            problems.append(f"ambient variable {name} must have positive value")
    # the rank over Q of the values' numerators: one radical per row, one
    # ambient variable per column
    if column_echelon(model._columns)[2] < len(model.ambient_vars):
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
    # Jacobian criterion (characteristic 0): the images are algebraically
    # independent exactly when some 3x3 minor of their Jacobian matrix is
    # a nonzero polynomial
    jac = [
        [model.images[v].derivative(u) for u in model.ambient_vars]
        for v in RING_VARS
    ]
    if all(
        _det3([[row[k] for k in cols] for row in jac]).is_zero()
        for cols in combinations(range(len(model.ambient_vars)), 3)
    ):
        problems.append("images of x, y, z are algebraically dependent")
    vx, vy, vz = (model.nu(model.images[v]) for v in RING_VARS)
    if not vx.sign() > 0:
        problems.append("x must have positive value")
    if vx > vy or vy > vz:
        problems.append(
            "ring variable values must be ordered: value(x) <= value(y) "
            "<= value(z)"
        )
    return problems
