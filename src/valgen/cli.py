"""Command line front end.

Three subcommands: ``build`` runs the full construction from a config
file and emits a JSON report plus a text rendering, ``ideal`` prints the
monomial generators of one valuation ideal, and ``verify-example``
checks the construction against the frozen worked example.

Exit codes: 0 on success; 2 for unusable input (config, values,
polynomials, thresholds), with a diagnostic naming the position where
parsing failed; 3 when the engine caught an internal inconsistency; 1
when verify-example found differences.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Optional

from ._golden import compare, example_state
from .errors import InternalConsistencyError, ParseError, ValgenError
from .grouplat import PairVec
from .jumpseq import DEFAULT_MAX_VALUE, JumpState, SearchBounds, build_state
from .laurent import parse_polynomial
from .outputs import (
    GeneratorSet,
    SequenceReport,
    gr_presentation,
    generating_sequence_detail,
    ideal_generators,
    redundancy_survey,
    semigroup_values_up_to,
)
from .valmodel import ValuationModel, validate_model
from .values import RadicalBasis, Value, parse_value

_BOUND_DEFAULTS = {
    "max_t_index": SearchBounds.max_t_index,
    "max_value": str(DEFAULT_MAX_VALUE),
    "d_layer_cap": SearchBounds.d_layer_cap,
    "d_coord_cap": SearchBounds.d_coord_cap,
}
_OUTPUT_DEFAULTS = {
    "redundancy_value_slack": "5",
    "redundancy_degree_cap": 40,
    "semigroup_cap": "2",
}


class ConfigError(Exception):
    pass


def _need(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    got = cfg[key]
    if not isinstance(got, kind):
        raise ConfigError(
            f"{where}.{key}: expected {kind.__name__}, got {type(got).__name__}"
        )
    return got


def _parse_text(parse, text, where: str, *args):
    """parse(text, *args), with a wrong type or a parse error as ConfigError."""
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected a string, got {type(text).__name__}")
    try:
        return parse(text, *args)
    except ParseError as e:
        raise ConfigError(f"{where}: {e}")


def _section(cfg: dict, key: str, defaults: dict, path: str) -> dict:
    """The defaults updated by the optional object ``cfg[key]``."""
    got = cfg.get(key, {})
    if not isinstance(got, dict):
        raise ConfigError(
            f"{path}.{key}: expected an object, got {type(got).__name__}"
        )
    return {**defaults, **got}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_config(path: str, max_t_index: Optional[int] = None,
                max_value: Optional[str] = None):
    """Read and check a config file.

    Returns (model, bounds, outputs, echo) where echo is the normalized
    config dictionary embedded in reports.  Raises ConfigError with a
    human-readable diagnostic on any problem.
    """
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at position {e.pos}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")

    raw_basis = _need(cfg, "basis", list, path)
    for pos, entry in enumerate(raw_basis):
        if not _is_int(entry):
            raise ConfigError(
                f"{path}.basis[{pos}]: expected an integer, "
                f"got {type(entry).__name__}"
            )
    try:
        basis = RadicalBasis(tuple(raw_basis))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}.basis: {e}")
    names = _need(cfg, "ambient_vars", list, path)
    if len(names) != 3 or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"{path}.ambient_vars: expected three names")
    av = tuple(names)
    raw_values = _need(cfg, "ambient_values", list, path)
    if len(raw_values) != 3:
        raise ConfigError(f"{path}.ambient_values: expected three entries")
    values = [
        _parse_text(parse_value, t, f"{path}.ambient_values[{pos}]", basis)
        for pos, t in enumerate(raw_values)
    ]
    raw_images = _need(cfg, "images", dict, path)
    images = {}
    for name in ("x", "y", "z"):
        if name not in raw_images:
            raise ConfigError(f"{path}.images: missing image of {name!r}")
        images[name] = _parse_text(
            parse_polynomial, raw_images[name], f"{path}.images.{name}", av
        )
    model = ValuationModel(
        basis=basis,
        ambient_vars=av,
        ambient_values=tuple(values),
        images=images,
    )
    problems = validate_model(model)
    if problems:
        raise ConfigError(
            f"{path}: model rejected: " + "; ".join(problems)
        )

    raw_bounds = _section(cfg, "bounds", _BOUND_DEFAULTS, path)
    if max_t_index is not None:
        raw_bounds["max_t_index"] = max_t_index
    if max_value is not None:
        raw_bounds["max_value"] = max_value
    cap: Optional[Value]
    if raw_bounds["max_value"] is None:
        cap = None
    else:
        cap = _parse_text(
            parse_value, raw_bounds["max_value"], f"{path}.bounds.max_value",
            basis,
        )
    for key in ("max_t_index", "d_layer_cap", "d_coord_cap"):
        if not _is_int(raw_bounds[key]) or raw_bounds[key] < 1:
            raise ConfigError(f"{path}.bounds.{key}: expected a positive integer")
    bounds = SearchBounds(
        max_t_index=raw_bounds["max_t_index"],
        max_value=cap,
        d_layer_cap=raw_bounds["d_layer_cap"],
        d_coord_cap=raw_bounds["d_coord_cap"],
    )

    outputs = _section(cfg, "outputs", _OUTPUT_DEFAULTS, path)
    for key in ("redundancy_value_slack", "semigroup_cap"):
        _parse_text(parse_value, outputs[key], f"{path}.outputs.{key}", basis)
    if not _is_int(outputs["redundancy_degree_cap"]):
        raise ConfigError(
            f"{path}.outputs.redundancy_degree_cap: expected an integer"
        )

    echo = {
        "basis": list(basis.radicands),
        "ambient_vars": list(av),
        "ambient_values": list(raw_values),
        "images": {k: raw_images[k] for k in ("x", "y", "z")},
        "bounds": {
            "max_t_index": raw_bounds["max_t_index"],
            "max_value": raw_bounds["max_value"],
            "d_layer_cap": raw_bounds["d_layer_cap"],
            "d_coord_cap": raw_bounds["d_coord_cap"],
        },
        "outputs": outputs,
    }
    return model, bounds, outputs, echo


# -- serialization ------------------------------------------------------------


def _value_json(v: Value) -> dict:
    return {
        "text": v.exact_str(),
        "coeffs": [str(c) for c in v.coeffs],
        "approx": v.approx_str(),
    }


def _vec_json(v: PairVec) -> dict:
    return {"p": list(v.p), "t": list(v.t)}


def _count_json(n: Optional[int], infinite: bool):
    if infinite:
        return "inf"
    return n


def report_doc(
    state: JumpState,
    echo: dict,
    survey: dict,
    detail: SequenceReport,
    relations,
    semigroup,
) -> dict:
    p_rows = []
    for rec in state.p_chain:
        p_rows.append(
            {
                "index": rec.index,
                "poly": rec.poly.text(),
                "value": _value_json(rec.beta),
                "q": _count_json(rec.q, rec.q is None),
                "L": list(rec.L_vec) if rec.L_vec is not None else None,
                "scalar": str(rec.lam) if rec.lam is not None else None,
            }
        )
    t_rows = []
    for rec in state.t_chain:
        t_rows.append(
            {
                "index": rec.index,
                "poly": rec.poly.text(),
                "value": _value_json(rec.gamma),
                "status": rec.status,
                "s": _count_json(rec.s, rec.s_is_infinite),
                "m": rec.m,
                "D": None
                if rec.D is None
                else {
                    "members": [_vec_json(v) for v in rec.D.members],
                    "complete": rec.D.complete,
                },
                "created_at": None
                if rec.parent is None
                else {
                    "step": rec.parent[0],
                    "vector": _vec_json(rec.parent[1]),
                },
                "scalar": str(rec.mu) if rec.mu is not None else None,
                "rewrite": _vec_json(rec.LN) if rec.LN is not None else None,
            }
        )
    red_rows = []
    for target in sorted(survey):
        cert = survey[target]
        red_rows.append(
            {
                "target": target,
                "status": cert.status,
                "combo": None
                if cert.combo is None
                else [
                    {"coeff": str(mu), "vector": _vec_json(v)}
                    for mu, v in cert.combo
                ],
            }
        )
    return {
        "config": echo,
        "p_chain": p_rows,
        "t_chain": t_rows,
        "flags": {
            "p_truncated": state.flags.p_truncated,
            "t_truncated": state.flags.t_truncated,
            "skipped": list(state.flags.skipped),
            "d_incomplete": list(state.flags.d_incomplete),
        },
        "redundancy": red_rows,
        "sequence": {
            "kept_p": list(detail.kept_p),
            "kept_t": list(detail.kept_t),
            "certified": detail.certified,
            "polynomials": [p.text() for p in detail.polynomials(state)],
        },
        "relations": [
            {
                "lhs": _vec_json(r.lhs),
                "rhs": _vec_json(r.rhs),
                "scalar": str(r.scalar),
            }
            for r in relations
        ],
        "semigroup": {
            "cap": _value_json(semigroup.cap),
            "values": [_value_json(v) for v in semigroup.values],
            "complete": semigroup.complete,
        },
    }


def _symbol(kind: str, index: int) -> str:
    if kind == "p":
        return {1: "x", 2: "y"}.get(index, f"P{index}")
    return {1: "z"}.get(index, f"T{index}")


def vector_symbol(vec: PairVec) -> str:
    parts = []
    for pos, c in enumerate(vec.p):
        if c:
            name = _symbol("p", pos + 1)
            parts.append(name if c == 1 else f"{name}^{c}")
    for pos, c in enumerate(vec.t):
        if c:
            name = _symbol("t", pos + 1)
            parts.append(name if c == 1 else f"{name}^{c}")
    return "*".join(parts) if parts else "1"


def render_text(doc: dict, elapsed: Optional[float] = None) -> str:
    lines = []
    lines.append("first chain")
    for row in doc["p_chain"]:
        q = row["q"]
        lines.append(
            f"  P{row['index']}  value {row['value']['text']}"
            f"  (~{row['value']['approx']})  q={q if q is not None else '?'}"
        )
        lines.append(f"      {row['poly']}")
    lines.append("")
    lines.append("second chain")
    for row in doc["t_chain"]:
        s = row["s"]
        head = (
            f"  T{row['index']}  value {row['value']['text']}"
            f"  status={row['status']}  s={s if s is not None else '?'}"
            f"  m={row['m'] if row['m'] is not None else '?'}"
        )
        lines.append(head)
        if row["D"] is not None:
            shown = ", ".join(
                vector_symbol(PairVec(tuple(v["p"]), tuple(v["t"])))
                for v in row["D"]["members"]
            )
            mark = "" if row["D"]["complete"] else "  (maybe incomplete)"
            lines.append(f"      new vectors: [{shown}]{mark}")
        if row["created_at"] is not None:
            vec = row["created_at"]["vector"]
            src = row["created_at"]["step"]
            rew = row["rewrite"]
            lines.append(
                f"      from step {src}: "
                f"{vector_symbol(PairVec(tuple(vec['p']), tuple(vec['t'])))}"
                f" - ({row['scalar']}) * "
                f"{vector_symbol(PairVec(tuple(rew['p']), tuple(rew['t'])))}"
            )
    lines.append("")
    lines.append("redundancy")
    for row in doc["redundancy"]:
        if row["combo"] is None:
            lines.append(f"  T{row['target']}: {row['status']}")
        else:
            combo = " + ".join(
                f"({e['coeff']})*"
                f"{vector_symbol(PairVec(tuple(e['vector']['p']), tuple(e['vector']['t'])))}"
                for e in row["combo"]
            )
            lines.append(f"  T{row['target']}: {row['status']}  = {combo}")
    lines.append("")
    seq = doc["sequence"]
    tag = "certified minimal" if seq["certified"] else "not certified minimal"
    lines.append(f"generating sequence ({tag})")
    for text in seq["polynomials"]:
        lines.append(f"  {text}")
    lines.append("")
    lines.append("graded ring relations")
    for row in doc["relations"]:
        lhs = vector_symbol(PairVec(tuple(row["lhs"]["p"]), tuple(row["lhs"]["t"])))
        rhs = vector_symbol(PairVec(tuple(row["rhs"]["p"]), tuple(row["rhs"]["t"])))
        lines.append(f"  {lhs} = ({row['scalar']}) * {rhs}")
    lines.append("")
    semi = doc["semigroup"]
    lines.append(
        f"semigroup values up to {semi['cap']['text']}"
        + ("" if semi["complete"] else "  (maybe incomplete)")
    )
    lines.append("  " + ", ".join(v["text"] for v in semi["values"]))
    flags = doc["flags"]
    notes = []
    if flags["p_truncated"]:
        notes.append("first chain truncated")
    if flags["t_truncated"]:
        notes.append("second chain truncated")
    if flags["skipped"]:
        notes.append(
            "skipped members: " + ", ".join(str(j) for j in flags["skipped"])
        )
    if flags["d_incomplete"]:
        notes.append(
            "vector searches capped at: "
            + ", ".join(str(j) for j in flags["d_incomplete"])
        )
    if notes:
        lines.append("")
        lines.append("notes")
        for n in notes:
            lines.append(f"  {n}")
    if elapsed is not None:
        lines.append("")
        lines.append(f"elapsed: {elapsed:.2f}s")
    lines.append("")
    return "\n".join(lines)


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".valgen-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    try:
        model, bounds, outputs, echo = load_config(
            args.config, args.max_t_index, args.max_value
        )
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    basis = model.basis
    start = time.monotonic()
    state = build_state(model, bounds=bounds)
    slack = parse_value(outputs["redundancy_value_slack"], basis)
    survey = redundancy_survey(
        state,
        value_slack=slack,
        degree_cap=outputs["redundancy_degree_cap"],
    )
    detail = generating_sequence_detail(state, survey=survey)
    relations = gr_presentation(state)
    semigroup = semigroup_values_up_to(
        state, parse_value(outputs["semigroup_cap"], basis)
    )
    elapsed = time.monotonic() - start
    doc = report_doc(state, echo, survey, detail, relations, semigroup)
    payload = _dump_json(doc)
    text = render_text(doc, elapsed=elapsed)
    if args.out:
        _write_atomic(args.out, payload)
        _write_atomic(args.out + ".txt", text)
        if not args.quiet:
            print(f"wrote {args.out} and {args.out}.txt", file=sys.stderr)
    elif args.json:
        sys.stdout.write(payload)
    else:
        sys.stdout.write(text)
    return 0


def cmd_ideal(args) -> int:
    try:
        model, bounds, _, _ = load_config(
            args.config, args.max_t_index, args.max_value
        )
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        sigma = parse_value(args.sigma, model.basis)
    except ParseError as e:
        print(f"error: --sigma: {e}", file=sys.stderr)
        return 2
    state = build_state(model, bounds=bounds)
    gens: GeneratorSet = ideal_generators(state, sigma)
    if args.json:
        doc = {
            "sigma": _value_json(sigma),
            "members": [
                {"p": list(v.p), "t": list(v.t), "symbol": vector_symbol(v)}
                for v in gens.members
            ],
            "complete": gens.complete,
        }
        sys.stdout.write(_dump_json(doc))
    else:
        if not args.quiet:
            mark = "" if gens.complete else "  (maybe incomplete)"
            print(f"generators at threshold {sigma.exact_str()}:{mark}")
        for v in gens.members:
            print(vector_symbol(v))
    return 0


def cmd_verify_example(args) -> int:
    state = example_state()
    survey = redundancy_survey(state)
    detail = generating_sequence_detail(state, survey=survey)
    diffs = compare(state, survey=survey, detail=detail)
    if args.json:
        sys.stdout.write(
            _dump_json({"ok": not diffs, "differences": diffs})
        )
    else:
        for d in diffs:
            print(d)
        if not args.quiet:
            print("example verified" if not diffs else
                  f"{len(diffs)} difference(s) found")
    return 0 if not diffs else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--max-t-index", type=int, default=None,
        help="override the chain length cap from the config",
    )
    shared.add_argument(
        "--max-value", default=None,
        help="override the processing value ceiling from the config",
    )
    shared.add_argument(
        "--json", action="store_true", help="emit JSON on stdout"
    )
    shared.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    parser = argparse.ArgumentParser(
        prog="valgen",
        description="generating sequences of rational valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser(
        "build", parents=[shared],
        help="run the construction and emit a full report",
    )
    b.add_argument("--config", required=True, help="path to a config file")
    b.add_argument(
        "--out", default=None,
        help="write the JSON report here and a text rendering alongside",
    )
    b.set_defaults(func=cmd_build)
    i = sub.add_parser(
        "ideal", parents=[shared],
        help="print generators of the valuation ideal at a threshold",
    )
    i.add_argument("--config", required=True, help="path to a config file")
    i.add_argument(
        "--sigma", required=True, help="value threshold, e.g. '2*sqrt(2) - 1'"
    )
    i.set_defaults(func=cmd_ideal)
    v = sub.add_parser(
        "verify-example", parents=[shared],
        help="check the construction against the built-in worked example",
    )
    v.set_defaults(func=cmd_verify_example)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except ValgenError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
