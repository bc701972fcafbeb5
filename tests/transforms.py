"""Transforms of a config whose effect on the outputs is known.

``scale_values(cfg, c)`` multiplies every value a config names by a
positive rational c: the ambient values, the value ceiling and the
value-typed outputs.  A valuation scaled by c orders every two monomials
as before, so each decision of the build stays the same and each value
of an output becomes c times as large.
"""
import copy
from fractions import Fraction

from valgen import RadicalBasis, parse_value
from valgen.cli import _BOUND_DEFAULTS, _OUTPUT_DEFAULTS

# the keys of the bounds and outputs sections whose texts are values
VALUE_BOUNDS = ("max_value",)
VALUE_OUTPUTS = ("redundancy_value_slack", "semigroup_cap")


def scale_values(cfg: dict, c: int | Fraction) -> dict:
    """A copy of cfg with each value it names, given or by default,
    multiplied by c > 0; a ceiling of None stays None."""
    if not c > 0:
        raise ValueError(f"the scale must be positive, got {c}")
    basis = RadicalBasis(tuple(cfg["basis"]))

    def scaled(text):
        if text is None:
            return None
        return (parse_value(text, basis) * c).exact_str()

    out = copy.deepcopy(cfg)
    out["ambient_values"] = [scaled(text) for text in cfg["ambient_values"]]
    for key, defaults, names in (
        ("bounds", _BOUND_DEFAULTS, VALUE_BOUNDS),
        ("outputs", _OUTPUT_DEFAULTS, VALUE_OUTPUTS),
    ):
        given = {**defaults, **cfg.get(key, {})}
        out[key] = {**cfg.get(key, {}), **{k: scaled(given[k]) for k in names}}
    return out
