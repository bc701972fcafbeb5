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
import time

from .errors import (
    InternalConsistencyError, ParseError, ThresholdTooHighError, ValgenError
)
from .jumpseq import (
    DEFAULT_MAX_VALUE, JumpState, PairVec, SearchBounds, build_state
)
from .laurent import parse_polynomial
from .outputs import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_VALUE_SLACK,
    GeneratorSet,
    SequenceReport,
    gr_presentation,
    generating_sequence_detail,
    ideal_generators,
    redundancy_survey,
    semigroup_values_up_to,
)
from .valmodel import ValuationModel, validate_model
from .values import RadicalBasis, Value, decimal_str, parse_value

_BOUND_DEFAULTS = {
    "max_t_index": SearchBounds().max_t_index,
    "max_value": str(DEFAULT_MAX_VALUE),
    "d_layer_cap": SearchBounds().d_layer_cap,
    "d_coord_cap": SearchBounds().d_coord_cap,
}
_OUTPUT_DEFAULTS = {
    "redundancy_value_slack": str(DEFAULT_VALUE_SLACK),
    "redundancy_degree_cap": DEFAULT_DEGREE_CAP,
    "semigroup_cap": "2",
}
_TOP_KEYS = ("basis", "ambient_vars", "ambient_values", "images", "bounds",
             "outputs")


class ConfigError(ValgenError):
    """Unusable input, named by the config file or object and key, or by
    the command-line option, it came from."""


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


def _known_keys(cfg: dict, known, where: str) -> None:
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _section(cfg: dict, key: str, defaults: dict, path: str) -> dict:
    """The defaults updated by the optional object ``cfg[key]``."""
    got = cfg.get(key, {})
    if not isinstance(got, dict):
        raise ConfigError(
            f"{path}.{key}: expected an object, got {type(got).__name__}"
        )
    _known_keys(got, defaults, f"{path}.{key}")
    return {**defaults, **got}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice."""
    got: dict = {}
    for key, val in pairs:
        if key in got:
            raise ConfigError(f"repeated key {key!r}")
        got[key] = val
    return got


def load_config(path: str, max_t_index: int | None = None,
                max_value: str | None = None):
    """Read a UTF-8 config file and check it with parse_config."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text at byte {e.start}")
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at position {e.pos}: {e.msg}")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")
    except ValueError:
        # the one other ValueError of decoding a str: int()'s digit limit
        raise ConfigError(f"{path}: an integer is too long to read")
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply")
    return parse_config(cfg, path, max_t_index, max_value)


def parse_config(cfg, where: str, max_t_index: int | None = None,
                 max_value: str | None = None):
    """Check a decoded config; the overrides replace its bounds.

    Returns (model, bounds, outputs, echo) where echo is the normalized
    config dictionary embedded in reports.  Raises ConfigError with a
    human-readable diagnostic, prefixed by ``where``, on any problem.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: top level must be an object")
    _known_keys(cfg, _TOP_KEYS, where)

    raw_basis = _need(cfg, "basis", list, where)
    for pos, entry in enumerate(raw_basis):
        if not _is_int(entry):
            raise ConfigError(
                f"{where}.basis[{pos}]: expected an integer, "
                f"got {type(entry).__name__}"
            )
    try:
        basis = RadicalBasis(tuple(raw_basis))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}.basis: {e}")
    names = _need(cfg, "ambient_vars", list, where)
    if len(names) != 3 or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"{where}.ambient_vars: expected three names")
    if len(set(names)) != 3:
        raise ConfigError(f"{where}.ambient_vars: names must be distinct")
    av = tuple(names)
    raw_values = _need(cfg, "ambient_values", list, where)
    if len(raw_values) != 3:
        raise ConfigError(f"{where}.ambient_values: expected three entries")
    values = [
        _parse_text(parse_value, t, f"{where}.ambient_values[{pos}]", basis)
        for pos, t in enumerate(raw_values)
    ]
    raw_images = _need(cfg, "images", dict, where)
    _known_keys(raw_images, ("x", "y", "z"), f"{where}.images")
    images = {}
    for name in ("x", "y", "z"):
        if name not in raw_images:
            raise ConfigError(f"{where}.images: missing image of {name!r}")
        images[name] = _parse_text(
            parse_polynomial, raw_images[name], f"{where}.images.{name}", av
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
            f"{where}: model rejected: " + "; ".join(problems)
        )

    raw_bounds = _section(cfg, "bounds", _BOUND_DEFAULTS, where)
    if max_t_index is not None:
        raw_bounds["max_t_index"] = max_t_index
    if max_value is not None:
        raw_bounds["max_value"] = max_value
    cap: Value | None
    if raw_bounds["max_value"] is None:
        cap = None
    else:
        cap = _parse_text(
            parse_value, raw_bounds["max_value"], f"{where}.bounds.max_value",
            basis,
        )
    try:
        bounds = SearchBounds(
            max_t_index=raw_bounds["max_t_index"],
            max_value=cap,
            d_layer_cap=raw_bounds["d_layer_cap"],
            d_coord_cap=raw_bounds["d_coord_cap"],
        )
    except ValueError as e:
        raise ConfigError(f"{where}.bounds.{e}")

    outputs = _section(cfg, "outputs", _OUTPUT_DEFAULTS, where)
    for key in ("redundancy_value_slack", "semigroup_cap"):
        got = _parse_text(parse_value, outputs[key], f"{where}.outputs.{key}",
                          basis)
        # a negative slack would leave every eligible member undecided
        if key == "redundancy_value_slack" and got.sign() < 0:
            raise ConfigError(f"{where}.outputs.{key}: must not be negative")
    degree_cap = outputs["redundancy_degree_cap"]
    if not _is_int(degree_cap) or degree_cap < 0:
        raise ConfigError(f"{where}.outputs.redundancy_degree_cap: "
                          "expected a nonnegative integer")

    echo = {
        "basis": list(basis.radicands),
        "ambient_vars": list(av),
        "ambient_values": list(raw_values),
        "images": {k: raw_images[k] for k in ("x", "y", "z")},
        "bounds": {key: raw_bounds[key] for key in _BOUND_DEFAULTS},
        "outputs": outputs,
    }
    return model, bounds, outputs, echo


# -- outputs ------------------------------------------------------------------


def derive_outputs(state: JumpState, outputs: dict):
    """(survey, detail, relations, semigroup) of a report, under the
    ``outputs`` section parse_config returned."""
    basis = state.basis
    survey = redundancy_survey(
        state,
        value_slack=parse_value(outputs["redundancy_value_slack"], basis),
        degree_cap=outputs["redundancy_degree_cap"],
    )
    return (
        survey,
        generating_sequence_detail(state, survey),
        gr_presentation(state),
        semigroup_values_up_to(
            state, parse_value(outputs["semigroup_cap"], basis)
        ),
    )


# -- serialization ------------------------------------------------------------


def _value_json(v: Value) -> dict:
    return {
        "text": v.exact_str(),
        "coeffs": [decimal_str(c) for c in v.coeffs],
        "approx": v.approx_str(),
    }


def _vec_json(v: PairVec) -> dict:
    return {"p": list(v.p), "t": list(v.t)}


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
                "q": "inf" if rec.q is None else rec.q,
                "L": list(rec.L_vec) if rec.L_vec is not None else None,
                "scalar": decimal_str(rec.lam) if rec.lam is not None else None,
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
                "s": "inf" if rec.s is None and rec.status == "ok" else rec.s,
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
                "scalar": decimal_str(rec.mu) if rec.mu is not None else None,
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
                    {"coeff": decimal_str(mu), "vector": _vec_json(v)}
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
                "scalar": decimal_str(r.scalar),
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


def _doc_symbol(vec: dict) -> str:
    """vector_symbol of a vector as report_doc writes it."""
    return vector_symbol(PairVec(tuple(vec["p"]), tuple(vec["t"])))


def render_text(doc: dict, elapsed: float | None = None) -> str:
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
            shown = ", ".join(_doc_symbol(v) for v in row["D"]["members"])
            mark = "" if row["D"]["complete"] else "  (maybe incomplete)"
            lines.append(f"      new vectors: [{shown}]{mark}")
        if row["created_at"] is not None:
            made = row["created_at"]
            lines.append(
                f"      from step {made['step']}: {_doc_symbol(made['vector'])}"
                f" - ({row['scalar']}) * {_doc_symbol(row['rewrite'])}"
            )
    lines.append("")
    lines.append("redundancy")
    for row in doc["redundancy"]:
        if row["combo"] is None:
            lines.append(f"  T{row['target']}: {row['status']}")
        else:
            combo = " + ".join(
                f"({e['coeff']})*{_doc_symbol(e['vector'])}" for e in row["combo"]
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
        lines.append(
            f"  {_doc_symbol(row['lhs'])} = ({row['scalar']})"
            f" * {_doc_symbol(row['rhs'])}"
        )
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
    # imported here: tempfile loads shutil, random, bz2 and lzma, which
    # only a build writing files needs
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".valgen-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            # mkstemp makes the file owner-only; give it the mode open()
            # would, 0o666 less the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
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
    model, bounds, outputs, echo = load_config(
        args.config, args.max_t_index, args.max_value
    )
    start = time.monotonic()
    state = build_state(model, bounds=bounds)
    try:
        derived = derive_outputs(state, outputs)
    except ThresholdTooHighError as e:
        raise ConfigError(f"{args.config}.outputs.semigroup_cap: {e}")
    elapsed = time.monotonic() - start
    doc = report_doc(state, echo, *derived)
    payload = _dump_json(doc)
    text = render_text(doc, elapsed=elapsed)
    if args.out:
        try:
            _write_atomic(args.out, payload)
            _write_atomic(args.out + ".txt", text)
        except OSError as e:
            raise ConfigError(f"--out: {e.strerror or e}")
        if not args.quiet:
            print(f"wrote {args.out} and {args.out}.txt", file=sys.stderr)
    elif args.json:
        sys.stdout.write(payload)
    else:
        sys.stdout.write(text)
    return 0


def cmd_ideal(args) -> int:
    model, bounds, _, _ = load_config(
        args.config, args.max_t_index, args.max_value
    )
    sigma = _parse_text(parse_value, args.sigma, "--sigma", model.basis)
    state = build_state(model, bounds=bounds)
    try:
        gens: GeneratorSet = ideal_generators(state, sigma)
    except ThresholdTooHighError as e:
        raise ConfigError(f"--sigma: {e}")
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
    # the golden data is only needed here; importing it lazily keeps it
    # out of every other subcommand's start-up
    from ._golden import compare, parsed_example

    # the same path as a build of the example's config
    model, bounds, outputs, _ = parsed_example()
    state = build_state(model, bounds=bounds)
    survey, detail, _, _ = derive_outputs(state, outputs)
    diffs = compare(state, survey, detail)
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
        "--json", action="store_true", help="emit JSON on stdout"
    )
    shared.add_argument(
        "--quiet", action="store_true", help="suppress informational output"
    )
    # the subcommands that read a config file
    configured = argparse.ArgumentParser(add_help=False, parents=[shared])
    configured.add_argument(
        "--config", required=True, help="path to a config file"
    )
    configured.add_argument(
        "--max-t-index", type=int, default=None,
        help="override the chain length cap from the config",
    )
    configured.add_argument(
        "--max-value", default=None,
        help="override the processing value ceiling from the config",
    )
    parser = argparse.ArgumentParser(
        prog="valgen",
        description="generating sequences of rational valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser(
        "build", parents=[configured],
        help="run the construction and emit a full report",
    )
    b.add_argument(
        "--out", default=None,
        help="write the JSON report here and a text rendering alongside",
    )
    b.set_defaults(func=cmd_build)
    i = sub.add_parser(
        "ideal", parents=[configured],
        help="print generators of the valuation ideal at a threshold",
    )
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


def main(argv: list[str] | None = None) -> int:
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
