"""Frozen expectations for the worked example shipped with the package.

The data below pins down every artifact of the default run: chain
values, minimal vector sets, creation bookkeeping, member polynomials
(rebuilt bottom-up from independent recipes, not from the engine),
initial terms, redundancy certificates, and the trimmed sequence.
``compare`` diffs a finished state against these expectations and
returns one line per disagreement, naming the field it concerns.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cli import parse_config
from .jumpseq import JumpState
from .laurent import LaurentPoly, parse_polynomial
from .outputs import RedundancyCertificate, SequenceReport
from .valmodel import RING_VARS
from .values import parse_value

CONFIG = {
    "basis": [1, 2, 51],
    "ambient_vars": ["x", "y", "z'"],
    "ambient_values": ["1", "sqrt(2)", "sqrt(51) - 5"],
    "images": {
        "x": "x",
        "y": "y",
        "z": "x^-1*y^2 + x^-5*y^5 + z'",
    },
    "bounds": {
        "max_t_index": 64,
        "max_value": "20",
        "d_layer_cap": 16,
        "d_coord_cap": 16,
    },
    "outputs": {
        "redundancy_value_slack": "5",
        "redundancy_degree_cap": 40,
        "semigroup_cap": "2",
    },
}


def _e(j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return ((), (0,) * (j - 1) + (1,))


# second-chain member polynomials, written directly in terms of the ring
# variables and earlier members; evaluated bottom-up without the engine
RECIPES = {
    2: "x*z - y^2",
    3: "x^2*T2 - y*z^2",
    4: "x*y*T2 - z^3",
    5: "y^3*T2 - z^4",
    6: "x*T4 - y*T3",
    7: "y*T4 - z*T3",
    8: "z^2*T4 - x*T2*T3",
    9: "z*T4^3 - T2*T3^3",
    10: "T5 - z*T4",
    11: "T6 + z^2*T2",
    12: "T7 + x*T2^2",
    13: "x*T8 + T3^2",
    14: "y*T8 + T3*T4",
    15: "z*T8 + T4^2",
    16: "T2*T3^3*T8 + T4^5",
    17: "T9 + T8^2",
    18: "T10 + y*T2^2",
    19: "T13 + z^4*T2",
    20: "T14 + y^2*z*T2^2",
    21: "T15 + y*z^2*T2^2",
    22: "T17 + z*T2^2*T3*T4",
    23: "T20 + z*T2^3",
    24: "T21 + T2^2*T3",
    25: "T22 - y^2*z^2*T2^4",
    26: "T25 - z^2*T2^5",
}

GOLDEN = {
    "chain_length": 26,
    "skipped": (16,),
    "betas": {1: "1", 2: "sqrt(2)"},
    "q": {1: None, 2: None},
    "gammas": {
        1: "2*sqrt(2) - 1",
        2: "5*sqrt(2) - 4",
        3: "sqrt(51) - 2",
        4: "sqrt(2) + sqrt(51) - 3",
        5: "3*sqrt(2) + sqrt(51) - 4",
        6: "9*sqrt(2) - 6",
        7: "10*sqrt(2) - 7",
        8: "2*sqrt(51) - 5",
        9: "4*sqrt(51) - 10",
        10: "11*sqrt(2) - 8",
        11: "0",
        12: "0",
        13: "13*sqrt(2) - 8",
        14: "14*sqrt(2) - 9",
        15: "15*sqrt(2) - 10",
        16: "6*sqrt(51) - 15",
        17: "13*sqrt(2) + 2*sqrt(51) - 14",
        18: "0",
        19: "0",
        20: "17*sqrt(2) - 13",
        21: "10*sqrt(2) + sqrt(51) - 10",
        22: "26*sqrt(2) - 18",
        23: "0",
        24: "0",
        25: "29*sqrt(2) - 22",
        26: "0",
    },
    "status": {j: "ok" for j in range(1, 27)} | {16: "skipped"},
    "s": {j: 1 for j in range(1, 27)} | {3: None, 16: None},
    "m": {j: 2 for j in range(1, 27)} | {16: None},
    "d_sets": {
        1: (((1,), (1,)),),
        2: (((2,), (0, 1)), ((1, 1), (0, 1)), ((0, 3), (0, 1))),
        3: (),
        4: (
            ((1,), (0, 0, 0, 1)),
            ((0, 1), (0, 0, 0, 1)),
            ((), (2, 0, 0, 1)),
            ((), (1, 0, 0, 3)),
        ),
        5: (_e(5),),
        6: (_e(6),),
        7: (_e(7),),
        8: (
            ((1,), (0, 0, 0, 0, 0, 0, 0, 1)),
            ((0, 1), (0, 0, 0, 0, 0, 0, 0, 1)),
            ((), (1, 0, 0, 0, 0, 0, 0, 1)),
            ((), (0, 1, 3, 0, 0, 0, 0, 1)),
        ),
        9: (_e(9),),
        10: (_e(10),),
        11: (),
        12: (),
        13: (_e(13),),
        14: (_e(14),),
        15: (_e(15),),
        16: None,
        17: (_e(17),),
        18: (),
        19: (),
        20: (_e(20),),
        21: (_e(21),),
        22: (_e(22),),
        23: (),
        24: (),
        25: (_e(25),),
        26: (),
    },
    "d_complete": {j: True for j in range(1, 27)}
    | {1: False, 2: False, 4: False, 8: False, 16: None},
    # member index -> (creating step, vector there, scalar, rewrite vector)
    "creations": {
        2: (1, ((1,), (1,)), "1", ((0, 2), ())),
        3: (2, ((2,), (0, 1)), "1", ((0, 1), (2,))),
        4: (2, ((1, 1), (0, 1)), "1", ((), (3,))),
        5: (2, ((0, 3), (0, 1)), "1", ((), (4,))),
        6: (4, ((1,), (0, 0, 0, 1)), "1", ((0, 1), (0, 0, 1))),
        7: (4, ((0, 1), (0, 0, 0, 1)), "1", ((), (1, 0, 1))),
        8: (4, ((), (2, 0, 0, 1)), "1", ((1,), (0, 1, 1))),
        9: (4, ((), (1, 0, 0, 3)), "1", ((), (0, 1, 3))),
        10: (5, _e(5), "1", ((), (1, 0, 0, 1))),
        11: (6, _e(6), "-1", ((), (2, 1))),
        12: (7, _e(7), "-1", ((1,), (0, 2))),
        13: (8, ((1,), (0, 0, 0, 0, 0, 0, 0, 1)), "-1", ((), (0, 0, 2))),
        14: (8, ((0, 1), (0, 0, 0, 0, 0, 0, 0, 1)), "-1", ((), (0, 0, 1, 1))),
        15: (8, ((), (1, 0, 0, 0, 0, 0, 0, 1)), "-1", ((), (0, 0, 0, 2))),
        16: (8, ((), (0, 1, 3, 0, 0, 0, 0, 1)), "-1", ((), (0, 0, 0, 5))),
        17: (9, _e(9), "-1", ((), (0, 0, 0, 0, 0, 0, 0, 2))),
        18: (10, _e(10), "-1", ((0, 1), (0, 2))),
        19: (13, _e(13), "-1", ((), (4, 1))),
        20: (14, _e(14), "-1", ((0, 2), (1, 2))),
        21: (15, _e(15), "-1", ((0, 1), (2, 2))),
        22: (17, _e(17), "-1", ((), (1, 2, 1, 1))),
        23: (20, _e(20), "-1", ((), (1, 3))),
        24: (21, _e(21), "-1", ((), (0, 2, 1))),
        25: (22, _e(22), "1", ((0, 2), (2, 4))),
        26: (25, _e(25), "1", ((), (2, 5))),
    },
    # written over the ambient variables
    "initial_terms": {
        1: "1*x^-1*y^2",
        2: "1*x^-4*y^5",
        3: "1*x^3*z'",
        4: "1*x^2*y*z'",
        5: "1*x*y^3*z'",
        6: "-1*x^-6*y^9",
        7: "-1*x^-7*y^10",
        8: "-1*x^5*z'^2",
        9: "-1*x^10*z'^4",
        10: "-1*x^-8*y^11",
        13: "-1*x^-8*y^13",
        14: "-1*x^-9*y^14",
        15: "-1*x^-10*y^15",
        16: "-1*x^15*z'^6",
        17: "-1*x^-4*y^13*z'^2",
        20: "-1*x^-13*y^17",
        21: "-1*x^-5*y^10*z'",
        22: "1*x^-18*y^26",
        25: "1*x^-22*y^29",
    },
    # member index -> (status, combination or None)
    "redundancy": {
        1: ("not_eligible", None),
        2: ("not_eligible", None),
        3: ("not_eligible", None),
        4: ("not_eligible", None),
        5: ("certified", (("1", ((), (1, 0, 0, 1))), ("-1", ((0, 1), (0, 2))))),
        6: ("certified", (("-1", ((), (2, 1))),)),
        7: ("certified", (("-1", ((1,), (0, 2))),)),
        8: ("not_eligible", None),
        9: (
            "certified",
            (
                ("-1", ((), (0, 0, 0, 0, 0, 0, 0, 2))),
                ("-1", ((), (1, 2, 1, 1))),
                ("1", ((0, 2), (2, 4))),
                ("1", ((), (2, 5))),
            ),
        ),
        10: ("certified", (("-1", ((0, 1), (0, 2))),)),
        11: ("zero", None),
        12: ("zero", None),
        13: ("certified", (("-1", ((), (4, 1))),)),
        14: (
            "certified",
            (("-1", ((0, 2), (1, 2))), ("-1", ((), (1, 3)))),
        ),
        15: (
            "certified",
            (("-1", ((0, 1), (2, 2))), ("-1", ((), (0, 2, 1)))),
        ),
        16: (
            "certified",
            (
                ("1", ((), (0, 0, 0, 0, 0, 0, 0, 3))),
                ("-1", ((0, 1), (1, 3, 3))),
                ("-1", ((), (0, 2, 1, 3))),
                ("3", ((), (3, 4, 2))),
                ("1", ((), (7, 5))),
                ("-2", ((0, 2), (1, 6, 1))),
                ("1", ((), (1, 5, 0, 2))),
                ("1", ((0, 1), (3, 7))),
                ("-1", ((), (1, 7, 1))),
            ),
        ),
        17: (
            "certified",
            (
                ("-1", ((), (1, 2, 1, 1))),
                ("1", ((0, 2), (2, 4))),
                ("1", ((), (2, 5))),
            ),
        ),
        18: ("zero", None),
        19: ("zero", None),
        20: ("certified", (("-1", ((), (1, 3))),)),
        21: ("certified", (("-1", ((), (0, 2, 1))),)),
        22: (
            "certified",
            (("1", ((0, 2), (2, 4))), ("1", ((), (2, 5)))),
        ),
        23: ("zero", None),
        24: ("zero", None),
        25: ("certified", (("1", ((), (2, 5))),)),
        26: ("zero", None),
    },
    "kept_p": (1, 2),
    "kept_t": (1, 2, 3, 4, 8),
    "certified": True,
    "minimal_polys": (
        "1*x",
        "1*y",
        "1*z",
        "1*x*z - 1*y^2",
        "1*x^3*z - 1*x^2*y^2 - 1*y*z^2",
        "1*x^2*y*z - 1*x*y^3 - 1*z^3",
        "-1*x^5*z^2 + 2*x^4*y^2*z - 1*x^3*y^4 + 2*x^2*y*z^3"
        " - 2*x*y^3*z^2 - 1*z^5",
    ),
}


def parsed_example(max_value: Optional[str] = None):
    """(model, bounds, outputs, echo) of CONFIG, as ``valgen build`` reads
    a config file; max_value replaces the ceiling."""
    return parse_config(CONFIG, "_golden.CONFIG", max_value=max_value)


def golden_polys() -> dict[int, LaurentPoly]:
    """The member polynomials rebuilt from the recipes alone."""
    names = ["x", "y", "z"] + [f"T{k}" for k in range(2, 27)]
    images: dict[str, LaurentPoly] = {
        v: LaurentPoly.variable(RING_VARS, v) for v in RING_VARS
    }
    out = {1: LaurentPoly.variable(RING_VARS, "z")}
    for k in range(2, 27):
        raw = parse_polynomial(RECIPES[k], names)
        poly = raw.substitute(images)
        images[f"T{k}"] = poly
        out[k] = poly
    return out


def compare(
    state: JumpState,
    survey: dict[int, RedundancyCertificate],
    detail: SequenceReport,
) -> list[str]:
    """Diff a finished state, its redundancy survey and its sequence
    report against the frozen expectations.

    Returns one line per mismatch, empty when the state reproduces the
    example exactly.
    """
    g = GOLDEN
    basis = state.basis
    diffs: list[str] = []

    def check(field: str, got, want) -> None:
        if got != want:
            diffs.append(f"{field}: got {got!r}, expected {want!r}")

    for idx, text in g["betas"].items():
        if idx > len(state.p_chain):
            diffs.append(f"beta{idx}: first chain too short")
            continue
        rec = state.p_chain[idx - 1]
        check(f"beta{idx}", rec.beta, parse_value(text, basis))
        check(f"q{idx}", rec.q, g["q"][idx])
    check("chain_length", len(state.t_chain), g["chain_length"])
    check("skipped", tuple(state.flags.skipped), g["skipped"])

    polys = golden_polys()
    for rec in state.t_chain:
        j = rec.index
        tag = f"T{j}"
        want_gamma = g["gammas"].get(j)
        if want_gamma is not None:
            check(f"gamma{j}", rec.gamma, parse_value(want_gamma, basis))
        check(f"status{j}", rec.status, g["status"].get(j))
        check(f"s{j}", rec.s, g["s"].get(j))
        check(f"m{j}", rec.m, g["m"].get(j))
        want_d = g["d_sets"].get(j)
        got_d = None if rec.D is None else tuple(
            (v.p, v.t) for v in rec.D.members
        )
        check(f"D{j}", got_d, want_d)
        want_complete = g["d_complete"].get(j)
        got_complete = None if rec.D is None else rec.D.complete
        check(f"D{j}_complete", got_complete, want_complete)
        creation = g["creations"].get(j)
        if creation is not None:
            src, vec, mu, ln = creation
            if rec.parent is None:
                diffs.append(f"{tag}: expected a creating step, found none")
            else:
                check(f"{tag}_source", rec.parent[0], src)
                check(f"{tag}_vector", (rec.parent[1].p, rec.parent[1].t), vec)
                check(f"{tag}_scalar", rec.mu, Fraction(mu))
                check(f"{tag}_rewrite", (rec.LN.p, rec.LN.t), ln)
        if j in polys and rec.poly != polys[j]:
            diffs.append(f"{tag}: polynomial differs from its recipe")
        want_init = g["initial_terms"].get(j)
        if want_init is not None and not rec.poly.is_zero():
            got_init = state.model.initial_term(rec.image)
            want_poly = parse_polynomial(want_init, state.model.ambient_vars)
            check(f"{tag}_initial", got_init, want_poly)

    for j, (status, combo) in g["redundancy"].items():
        cert = survey.get(j)
        if cert is None:
            diffs.append(f"cert{j}: missing")
            continue
        check(f"cert{j}_status", cert.status, status)
        if status == "certified" and cert.status == "certified":
            got = tuple((str(mu), (v.p, v.t)) for mu, v in cert.combo)
            want = tuple((mu, vec) for mu, vec in combo)
            check(f"cert{j}_combo", got, want)

    check("kept_p", detail.kept_p, g["kept_p"])
    check("kept_t", detail.kept_t, g["kept_t"])
    check("minimality_certified", detail.certified, g["certified"])
    got_polys = tuple(p.text() for p in detail.polynomials(state))
    check("minimal_polys", got_polys, g["minimal_polys"])
    return diffs
