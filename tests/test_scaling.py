"""The build, the survey and the threshold queries scale with the values.

Multiplying every value of a model by a positive rational c
(``transforms.scale_values``) keeps each monomial's order, so each
decision of the build and of the redundancy survey stays the same: every
member's ring form, status, D set size, s and m, and every certificate's
status and combination.  The ideal generators at c*sigma are those at
sigma, and the semigroup slice up to c*sigma is the one up to sigma
times c.  The thresholds spread over a model's threshold index: indexed
values, where a generator of value exactly sigma decides the boundary,
and the midpoints between them.
"""
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from valgen import build_state, ideal_generators, semigroup_values_up_to
from valgen._golden import CONFIG
from valgen.cli import derive_outputs, parse_config

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
def parsed(name, c=1):
    """(model, bounds, outputs, echo) of model name with its values
    scaled by c."""
    return parse_config(scale_values(MODELS[name], c), name)


@cache
def built(name, c=1):
    """The state of model name with its values scaled by c."""
    model, bounds, _, _ = parsed(name, c)
    return build_state(model, bounds=bounds)


def decisions(name, c=1):
    """What the build and the survey of model name, scaled by c, decide:
    per member its ring form, then per second-chain member its status, D
    set size, s and m, and per certificate its status and combination."""
    st = built(name, c)
    survey, _, _, _ = derive_outputs(st, parsed(name, c)[2])
    return (
        [rec.poly for rec in st.p_chain],
        [(rec.poly, rec.status, rec.D and len(rec.D.members), rec.s, rec.m)
         for rec in st.t_chain],
        {j: (cert.status, cert.combo) for j, cert in survey.items()},
    )


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


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", ["example", "tower"])
def test_build_and_survey_decide_alike_at_every_scale(name, c):
    polys, members, certificates = decisions(name)
    # the second chain runs past its first position, and the survey
    # certifies a member with a combination
    assert len(members) > 2
    assert "certified" in {status for status, _ in certificates.values()}
    assert decisions(name, c) == (polys, members, certificates)
