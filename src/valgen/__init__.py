"""Exact construction of generating sequences for rational valuations
centered in a three-variable regular local ring.

The pieces: ``values`` holds exact arithmetic in a fixed real radical
field, ``laurent`` sparse Laurent polynomials, ``valmodel`` the
valuation given by monomial images, ``grouplat`` the group, lattice and
semigroup solvers, ``jumpseq`` the chain construction itself, and
``outputs`` everything derived from a finished chain.
"""
from .errors import (
    InternalConsistencyError,
    NonInvertibleSubstitution,
    NotInSemigroupError,
    ParseError,
    ThresholdTooHighError,
    UnequalValuesError,
    ValgenError,
    ValuationOfZeroError,
)
from .grouplat import (
    SemigroupSolver,
    column_echelon,
    irreducible_decompose,
    lattice_solve,
    min_multiple_in_group,
    minimal_pushing_set,
    minimal_semigroup_generators,
    permissible_decompose,
    staircase,
)
from .jumpseq import (
    Flags,
    GeneratorSet,
    JumpState,
    PJump,
    PairVec,
    SearchBounds,
    TJump,
    build_p_chain,
    build_state,
    build_t_chain,
)
from .laurent import LaurentPoly, parse_polynomial
from .outputs import (
    GrRelation,
    RedundancyCertificate,
    SemigroupSlice,
    SequenceReport,
    generating_sequence_detail,
    gr_presentation,
    ideal_generators,
    redundancy_certificate,
    redundancy_survey,
    semigroup_values_up_to,
)
from .valmodel import RING_VARS, ValuationModel, validate_model
from .values import RadicalBasis, Value, combination, parse_value

__version__ = "0.1.0"

__all__ = [
    "Flags",
    "GeneratorSet",
    "GrRelation",
    "InternalConsistencyError",
    "JumpState",
    "LaurentPoly",
    "NonInvertibleSubstitution",
    "NotInSemigroupError",
    "PJump",
    "PairVec",
    "ParseError",
    "RING_VARS",
    "RadicalBasis",
    "RedundancyCertificate",
    "SearchBounds",
    "SemigroupSlice",
    "SemigroupSolver",
    "SequenceReport",
    "TJump",
    "ThresholdTooHighError",
    "UnequalValuesError",
    "ValgenError",
    "ValuationModel",
    "ValuationOfZeroError",
    "Value",
    "build_p_chain",
    "build_state",
    "build_t_chain",
    "column_echelon",
    "combination",
    "generating_sequence_detail",
    "gr_presentation",
    "ideal_generators",
    "irreducible_decompose",
    "lattice_solve",
    "min_multiple_in_group",
    "minimal_pushing_set",
    "minimal_semigroup_generators",
    "parse_polynomial",
    "parse_value",
    "permissible_decompose",
    "redundancy_certificate",
    "redundancy_survey",
    "semigroup_values_up_to",
    "staircase",
    "validate_model",
]
