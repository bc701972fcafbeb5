"""Exception types shared across the package.

Usage errors (bad arguments, mismatched carriers) raise ValueError or
TypeError directly; the classes here mark *domain* failures that callers
may want to catch and handle individually.
"""
from __future__ import annotations


class ValgenError(Exception):
    """Base class for domain errors raised by this package."""


class ParseError(ValgenError):
    """Input text could not be parsed; carries a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
        self.bare_message = message


class NotInSemigroupError(ValgenError):
    """A value has no nonnegative integer representation over the generators."""


class NonInvertibleSubstitution(ValgenError):
    """A negative power of a variable whose image is not a unit monomial."""


class ValuationOfZeroError(ValgenError):
    """The zero polynomial has no valuation."""


class UnequalValuesError(ValgenError):
    """residue_ratio was called on polynomials of different valuation."""


class ThresholdTooHighError(ValgenError):
    """A threshold query would index more monomials than the budget
    (``outputs.INDEX_ENTRY_BUDGET``) allows."""


class InternalConsistencyError(ValgenError):
    """An invariant that should hold by construction failed.

    Reaching this means either a bug or an input model that violates the
    standing hypotheses in a way validation did not catch.
    """
