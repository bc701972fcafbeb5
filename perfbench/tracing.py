"""Traced run: per-layer spans and counts for one unit of a workload.

    python3 perfbench/tracing.py --workload example --out trace.json

The tracer wraps public valgen functions from outside the package; no file
under ``src/`` knows about it.  A wrapped call records one span (name,
start, end, parent span) in memory; the spans are written out, gzipped, at
the end.  A layer's self time is its spans' time minus the time of the
spans they caused.

Every name a hook targets is replaced wherever valgen bound it: in each
module that imported it with ``from ... import``, and under every class
attribute that aliases it (``Value.__rmul__`` is ``Value.__mul__``).  A
hook whose target no longer resolves is reported as absent, with null
metrics, never as zero.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".perfbench_out"

# (span name, module, attribute path); one span name may cover several
# functions of one layer
HOOKS = (
    ("cli.load_config", "valgen.cli", "load_config"),
    ("cli.report_doc", "valgen.cli", "report_doc"),
    ("cli.dump_json", "valgen.cli", "_dump_json"),
    ("cli.render_text", "valgen.cli", "render_text"),
    ("jumpseq.build_p_chain", "valgen.jumpseq", "build_p_chain"),
    ("jumpseq.build_t_chain", "valgen.jumpseq", "build_t_chain"),
    ("grouplat.contains", "valgen.grouplat", "SemigroupSolver.contains"),
    ("grouplat.minimal_pushing_set", "valgen.grouplat", "minimal_pushing_set"),
    ("grouplat.lattice_solve", "valgen.grouplat", "lattice_solve"),
    ("grouplat.min_multiple_in_group", "valgen.grouplat", "min_multiple_in_group"),
    ("grouplat.irreducible_decompose", "valgen.grouplat", "irreducible_decompose"),
    ("grouplat.permissible_decompose", "valgen.grouplat", "permissible_decompose"),
    ("grouplat.minimal_semigroup_generators", "valgen.grouplat",
     "minimal_semigroup_generators"),
    ("valmodel.expand", "valgen.valmodel", "ValuationModel.expand"),
    ("valmodel.nu", "valgen.valmodel", "ValuationModel.nu"),
    ("valmodel.initial_term", "valgen.valmodel", "ValuationModel.initial_term"),
    ("valmodel.residue_ratio", "valgen.valmodel", "ValuationModel.residue_ratio"),
    ("laurent.mul", "valgen.laurent", "LaurentPoly.__mul__"),
    ("laurent.pow", "valgen.laurent", "LaurentPoly.__pow__"),
    ("laurent.substitute", "valgen.laurent", "LaurentPoly.substitute"),
    ("values.sign", "valgen.values", "Value.sign"),
    ("values.compare", "valgen.values", "Value.__lt__"),
    ("values.compare", "valgen.values", "Value.__le__"),
    ("values.compare", "valgen.values", "Value.__gt__"),
    ("values.compare", "valgen.values", "Value.__ge__"),
    ("values.arith", "valgen.values", "Value.__add__"),
    ("values.arith", "valgen.values", "Value.__sub__"),
    ("values.arith", "valgen.values", "Value.__neg__"),
    ("values.arith", "valgen.values", "Value.__mul__"),
    ("outputs.ideal_generators", "valgen.outputs", "ideal_generators"),
    ("outputs.semigroup_values_up_to", "valgen.outputs", "semigroup_values_up_to"),
    ("outputs.redundancy_survey", "valgen.outputs", "redundancy_survey"),
    ("outputs.redundancy_certificate", "valgen.outputs", "redundancy_certificate"),
    ("outputs.generating_sequence_detail", "valgen.outputs",
     "generating_sequence_detail"),
    ("outputs.gr_presentation", "valgen.outputs", "gr_presentation"),
)

# spans that must see calls in a traced unit, or a patch silently missed
HOT = {
    "example": (
        "grouplat.contains", "grouplat.minimal_pushing_set", "grouplat.lattice_solve",
        "valmodel.expand", "valmodel.nu", "laurent.mul", "laurent.pow",
        "values.sign", "values.compare", "values.arith",
        "outputs.redundancy_certificate", "cli.report_doc",
    ),
    "heavy": (
        "grouplat.contains", "grouplat.minimal_pushing_set", "values.sign",
        "values.compare", "values.arith", "outputs.ideal_generators",
    ),
    "ideal-sweep": (
        "values.sign", "values.compare", "values.arith",
        "outputs.ideal_generators", "outputs.semigroup_values_up_to",
    ),
}


class Tracer:
    """In-memory spans of wrapped calls, for one thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span named ``name`` per call; ``observe`` gets
        (args, result) of every call that returned."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock, stack = self.clock, self.stack
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def summary(self) -> dict:
        return summarize(
            [self.names[i] for i in self.span_name], self.parent, self.start, self.end
        )

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.names[self.span_name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\n"
                )


def summarize(names, parents, starts, ends) -> dict:
    """Per span name: calls, total, self and longest time (ns).

    Spans are given as parallel sequences; ``parents[i]`` is the index of
    the span that caused span i, or -1.  Self time is a span's duration
    minus the durations of its direct children, which on one thread never
    overlap.
    """
    covered = [0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out: dict[str, dict] = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        st = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0})
        st["calls"] += 1
        st["total_ns"] += dur
        st["self_ns"] += dur - covered[i]
        st["max_ns"] = max(st["max_ns"], dur)
    return out


def _resolve(module: str, path: str):
    """(owner, function) for a dotted attribute path inside a module."""
    owner = fn = importlib.import_module(module)
    for part in path.split("."):
        owner, fn = fn, getattr(fn, part)
    return owner, fn


def install(tracer: Tracer, observers: dict, hooks=HOOKS):
    """Patch every binding of every hook target.

    Returns (undo list of (holder, attribute, original), absent hook
    names).  Methods are patched under every attribute of their class that
    holds them; functions under every attribute of every loaded valgen
    module that holds them.
    """
    modules = [m for n, m in sys.modules.items() if n == "valgen" or n.startswith("valgen.")]
    patched, absent = [], []
    for name, module, path in hooks:
        try:
            owner, fn = _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, fn, observers.get(name))
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if val is fn:
                    setattr(holder, attr, wrapper)
                    patched.append((holder, attr, fn))
    return patched, absent


def uninstall(patched) -> None:
    for holder, attr, fn in reversed(patched):
        setattr(holder, attr, fn)


def observers(counts: Counter, captured: dict) -> dict:
    """Counts taken from arguments and results at the hooked boundaries."""
    seen = set()

    def contains(args, result):
        counts["grouplat.contains_hits"] += result is not None

    def mul(args, result):
        other = getattr(args[1], "terms", None)
        if other is not None:
            counts["laurent.term_products"] += len(args[0].terms) * len(other)

    def expand(args, result):
        f = args[1]
        counts["valmodel.expand_repeats"] += f in seen
        seen.add(f)

    def ideal(args, result):
        counts["outputs.ideal_generators_members"] += len(result.members)

    def dump(args, result):
        counts["cli.report_bytes"] += len(result.encode())

    def t_chain(args, result):
        captured["state"] = result

    return {
        "grouplat.contains": contains,
        "laurent.mul": mul,
        "valmodel.expand": expand,
        "outputs.ideal_generators": ideal,
        "cli.dump_json": dump,
        "jumpseq.build_t_chain": t_chain,
    }


def _calls(span):
    return (span,), lambda s, c: s[span]["calls"]


def _self_s(*spans):
    return spans, lambda s, c: sum(s[sp]["self_ns"] for sp in spans) / 1e9


def _longest(span, ns_per_unit):
    return (span,), lambda s, c: s[span]["max_ns"] / ns_per_unit


def _recorded(key, *spans):
    """A value recorded at a hooked boundary or from the built state."""
    return spans, lambda s, c: c[key]


def _per_call(key, span):
    """Count per call of a span; 0 when the span saw no calls."""
    return (span,), lambda s, c: c[key] / s[span]["calls"] if s[span]["calls"] else 0.0


# (metric, unit, spans it needs, value from (span stats, counts))
PER_LAYER = [
    ("grouplat.contains_calls", "count", *_calls("grouplat.contains")),
    ("grouplat.contains_s", "s", *_self_s("grouplat.contains")),
    ("grouplat.contains_member_ratio", "ratio",
     *_per_call("grouplat.contains_hits", "grouplat.contains")),
    ("grouplat.contains_max_ms", "ms", *_longest("grouplat.contains", 1e6)),
    ("grouplat.minimal_pushing_set_calls", "count", *_calls("grouplat.minimal_pushing_set")),
    ("grouplat.minimal_pushing_set_s", "s", *_self_s("grouplat.minimal_pushing_set")),
    ("grouplat.minimal_pushing_set_max_s", "s",
     *_longest("grouplat.minimal_pushing_set", 1e9)),
    ("grouplat.lattice_solve_s", "s", *_self_s("grouplat.lattice_solve")),
    ("grouplat.min_multiple_in_group_s", "s", *_self_s("grouplat.min_multiple_in_group")),
    ("grouplat.irreducible_decompose_s", "s", *_self_s("grouplat.irreducible_decompose")),
    ("grouplat.permissible_decompose_s", "s", *_self_s("grouplat.permissible_decompose")),
    ("grouplat.minimal_semigroup_generators_s", "s",
     *_self_s("grouplat.minimal_semigroup_generators")),
    ("valmodel.expand_calls", "count", *_calls("valmodel.expand")),
    ("valmodel.expand_s", "s", *_self_s("valmodel.expand")),
    ("valmodel.expand_repeat_ratio", "ratio",
     *_per_call("valmodel.expand_repeats", "valmodel.expand")),
    ("valmodel.nu_s", "s", *_self_s("valmodel.nu")),
    ("valmodel.initial_term_s", "s", *_self_s("valmodel.initial_term")),
    ("valmodel.residue_ratio_s", "s", *_self_s("valmodel.residue_ratio")),
    ("laurent.mul_calls", "count", *_calls("laurent.mul")),
    ("laurent.mul_s", "s", *_self_s("laurent.mul")),
    ("laurent.term_products", "count", *_recorded("laurent.term_products", "laurent.mul")),
    ("laurent.pow_calls", "count", *_calls("laurent.pow")),
    ("laurent.pow_s", "s", *_self_s("laurent.pow")),
    ("laurent.substitute_s", "s", *_self_s("laurent.substitute")),
    ("values.sign_calls", "count", *_calls("values.sign")),
    ("values.sign_s", "s", *_self_s("values.sign")),
    ("values.compare_calls", "count", *_calls("values.compare")),
    ("values.arith_calls", "count", *_calls("values.arith")),
    ("values.arith_s", "s", *_self_s("values.arith")),
    ("outputs.ideal_generators_s", "s", *_self_s("outputs.ideal_generators")),
    ("outputs.ideal_generators_members", "count",
     *_recorded("outputs.ideal_generators_members", "outputs.ideal_generators")),
    ("outputs.semigroup_values_up_to_s", "s", *_self_s("outputs.semigroup_values_up_to")),
    # the survey's own work: its span and its per-member certificate spans
    ("outputs.redundancy_survey_s", "s",
     *_self_s("outputs.redundancy_survey", "outputs.redundancy_certificate")),
    ("outputs.redundancy_certificate_max_s", "s",
     *_longest("outputs.redundancy_certificate", 1e9)),
    ("outputs.generating_sequence_detail_s", "s",
     *_self_s("outputs.generating_sequence_detail")),
    ("outputs.gr_presentation_s", "s", *_self_s("outputs.gr_presentation")),
    ("jumpseq.build_p_chain_s", "s", *_self_s("jumpseq.build_p_chain")),
    ("jumpseq.build_t_chain_s", "s", *_self_s("jumpseq.build_t_chain")),
    # read from the built state, so they show the workload did not change
    ("jumpseq.members", "count", *_recorded("jumpseq.members")),
    ("jumpseq.skipped", "count", *_recorded("jumpseq.skipped")),
    ("jumpseq.d_incomplete", "count", *_recorded("jumpseq.d_incomplete")),
    ("cli.import_s", "s", *_recorded("cli.import_s")),
    ("cli.load_config_s", "s", *_self_s("cli.load_config")),
    ("cli.report_doc_s", "s", *_self_s("cli.report_doc")),
    ("cli.dump_json_s", "s", *_self_s("cli.dump_json")),
    ("cli.render_text_s", "s", *_self_s("cli.render_text")),
    ("cli.report_bytes", "count", *_recorded("cli.report_bytes", "cli.dump_json")),
]


def layer_metrics(stats: dict, counts: Counter, absent) -> dict:
    """Every per-layer metric; null where a hook it needs is absent."""
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0}
    full = {name: stats.get(name, zero) for name, _, _ in HOOKS}
    out = {}
    for metric, unit, spans, value in PER_LAYER:
        got = None if any(sp in absent for sp in spans) else value(full, counts)
        out[metric] = {"value": got, "unit": unit}
    return out


def chain_counts(state, counts: Counter) -> None:
    counts["jumpseq.members"] = len(state.t_chain)
    counts["jumpseq.skipped"] = len(state.flags.skipped)
    counts["jumpseq.d_incomplete"] = len(state.flags.d_incomplete)


# -- the traced units ------------------------------------------------------------------


def traced_build(workload: str, problems: list[str]):
    """Drive one build through valgen.cli.main with hooks installed."""
    import run
    from valgen import cli

    argv, report = run.build_args(workload)
    tracer, counts, captured = Tracer(), Counter(), {}
    patched, absent = install(tracer, observers(counts, captured))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    unit_s = time.perf_counter() - T_START
    uninstall(patched)
    if code != 0:
        problems.append(f"valgen exited with {code}")
    else:
        data = Path(report).read_bytes() if report else buf.getvalue().encode()
        if hashlib.sha256(data).hexdigest() != run.expected()[workload]["sha256"]:
            problems.append(f"{workload}: output differs from the pinned digest")
    if "state" in captured:
        chain_counts(captured["state"], counts)
    return tracer, counts, absent, unit_s, None


def traced_sweep(seed: int, problems: list[str]):
    """One untraced and one traced pass of the session's queries."""
    import session

    state = session.set_up()
    problems.extend(session.warm_up(state))
    texts = session.thresholds(seed)
    t0 = time.perf_counter()
    plain, _, _ = session.timed_pass(state, texts)
    untraced_s = time.perf_counter() - t0
    tracer, counts, captured = Tracer(), Counter(), {}
    patched, absent = install(tracer, observers(counts, captured))
    t0 = time.perf_counter()
    answers, _, _ = session.timed_pass(state, texts)
    traced_s = time.perf_counter() - t0
    uninstall(patched)
    if [session.answer_text(a) for a in answers] != [session.answer_text(a) for a in plain]:
        problems.append("traced answers differ from untraced answers")
    for a in plain:
        problems.extend(session.check(state, a))
    chain_counts(state, counts)
    return tracer, counts, absent, traced_s, untraced_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(HOT))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import valgen.cli  # noqa: F401  (the package and every module)

    import_s = time.perf_counter() - t0
    problems: list[str] = []
    if args.workload == "ideal-sweep":
        tracer, counts, absent, unit_s, untraced_s = traced_sweep(args.seed, problems)
    else:
        tracer, counts, absent, unit_s, untraced_s = traced_build(args.workload, problems)
    counts["cli.import_s"] = import_s
    stats = tracer.summary()
    metrics = layer_metrics(stats, counts, set(absent))
    notes = []
    for name in HOT[args.workload]:
        if name not in absent and stats.get(name, {}).get("calls", 0) == 0:
            problems.append(f"hook {name} saw no calls: a patch missed its target")
    if absent:
        notes.append("absent hooks: " + ", ".join(sorted(set(absent))))
    if args.workload == "ideal-sweep":
        notes.append(
            "bypass: the traced query pass made "
            f"{metrics['grouplat.contains_calls']['value']} membership queries and "
            f"{metrics['laurent.mul_calls']['value']} polynomial products"
        )
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.tsv.gz"
    tracer.write(spans_path)
    notes.append(f"{len(tracer.start)} spans written to {spans_path.name}")
    Path(args.out).write_text(json.dumps(
        {"metrics": metrics, "unit_s": unit_s, "untraced_s": untraced_s,
         "problems": problems, "notes": notes}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
