"""The threshold queries scale with the values.

Multiplying every value of a model by a positive rational c
(``transforms.scale_values``) keeps each monomial's order, so the ideal
generators at c*sigma are those at sigma, and the semigroup slice up to
c*sigma is the one up to sigma times c.  The thresholds spread over a
model's threshold index: indexed values, where a generator of value
exactly sigma decides the boundary, and the midpoints between them.
"""
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from valgen import build_state, ideal_generators, semigroup_values_up_to
from valgen._golden import CONFIG
from valgen.cli import parse_config

from corpus import tower_config
from transforms import scale_values

ROOT = Path(__file__).resolve().parent.parent
MODELS = {
    "second": json.loads((ROOT / "perfbench/configs/second.json").read_text()),
    "example": CONFIG,
    "tower": tower_config(0),
}
SCALES = [2, Fraction(1, 3), Fraction(7, 5)]


@cache
def built(name, c=1):
    """The state of model name with its values scaled by c."""
    model, bounds, _, _ = parse_config(scale_values(MODELS[name], c), name)
    return build_state(model, bounds=bounds)


def spread_thresholds(st, cap):
    """The values up to cap at one to four fifths of their list, and the
    midpoint of each and the next."""
    vals = semigroup_values_up_to(st, cap).values
    at = [len(vals) * k // 5 for k in range(1, 5)]
    half = Fraction(1, 2)
    return [vals[i] for i in at] + [(vals[i] + vals[i + 1]) * half for i in at]


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", MODELS)
def test_threshold_queries_scale_with_the_values(name, c):
    st, scaled = built(name), built(name, c)
    sigmas = spread_thresholds(st, st.basis.rational(4))
    assert len(set(sigmas)) == 8
    for sigma in sigmas:
        gens = ideal_generators(st, sigma)
        got = ideal_generators(scaled, sigma * c)
        assert got.members == gens.members and got.complete == gens.complete
        sl = semigroup_values_up_to(st, sigma)
        got = semigroup_values_up_to(scaled, sigma * c)
        assert got.values == tuple(v * c for v in sl.values)
        assert got.complete == sl.complete
