"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402


def test_self_time_on_a_nested_span_tree():
    # a [0, 100) holds b [10, 50) and c [60, 90); b holds a second "c" [20, 30)
    names = ["a", "b", "c", "c"]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 60]
    ends = [100, 50, 30, 90]
    got = tracing.summarize(names, parents, starts, ends)
    assert got["a"] == {"calls": 1, "total_ns": 100, "self_ns": 30, "max_ns": 100}
    assert got["b"] == {"calls": 1, "total_ns": 40, "self_ns": 30, "max_ns": 40}
    assert got["c"] == {"calls": 2, "total_ns": 40, "self_ns": 40, "max_ns": 30}


def test_tracer_records_nesting_with_a_synthetic_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    # outer [0, 50), inner [10, 20) and [30, 40)
    got = tracer.summary()
    assert got["outer"]["self_ns"] == 30
    assert got["inner"] == {"calls": 2, "total_ns": 20, "self_ns": 20, "max_ns": 10}
    assert list(tracer.parent) == [-1, 0, 0]


def test_install_patches_imported_names_and_aliases():
    from valgen import jumpseq, values

    hooks = (
        ("values.arith", "valgen.values", "Value.__mul__"),
        ("grouplat.minimal_pushing_set", "valgen.grouplat", "minimal_pushing_set"),
        ("gone", "valgen.grouplat", "no_such_function"),
    )
    original = values.Value.__dict__["__mul__"]
    tracer = tracing.Tracer()
    patched, absent = tracing.install(tracer, {}, hooks)
    try:
        assert absent == ["gone"]
        assert values.Value.__dict__["__rmul__"] is values.Value.__dict__["__mul__"]
        assert values.Value.__dict__["__mul__"] is not original
        assert jumpseq.minimal_pushing_set is not original
        assert jumpseq.minimal_pushing_set.__wrapped__.__module__ == "valgen.grouplat"
        basis = values.RadicalBasis((1, 2))
        3 * basis.root(2)
        basis.root(2) * 3
    finally:
        tracing.uninstall(patched)
    assert tracer.summary()["values.arith"]["calls"] == 2
    assert values.Value.__dict__["__rmul__"] is original


def test_absent_hooks_give_null_metrics():
    got = tracing.layer_metrics({}, Counter(), {"grouplat.contains"})
    assert got["grouplat.contains_calls"]["value"] is None
    assert got["grouplat.contains_member_ratio"]["value"] is None
    assert got["laurent.mul_calls"]["value"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 99) == 7.0


def test_times_scale_to_the_reference_host_speed():
    ref = hostspeed.PROBE_REF_S
    # a host at half speed: probes take twice their reference time
    assert abs(hostspeed.at_reference(3.0, [2 * ref] * 5) - 1.5) < 1e-12
    # the median probe counts, so one probe hit by a pause does not
    assert abs(hostspeed.at_reference(3.0, [ref, ref, 50 * ref]) - 3.0) < 1e-12
    assert hostspeed.Prober()() > 0


def test_work_scales_stretch_by_stretch():
    ref = hostspeed.PROBE_REF_S
    # ten units of work at full speed, then ten at half speed
    probes = [ref] * 10 + [2 * ref] * 11
    work = [1.0] * 10 + [2.0] * 10
    got = hostspeed.work_at_reference(probes, work)
    assert abs(got - 20.0) < 0.5
    # one median for the whole unit scales the quick half as slow too
    assert hostspeed.at_reference(sum(work), probes) == 15.0
    # a probe hit by an interrupt does not count
    probes[5] = 50 * ref
    assert hostspeed.work_at_reference(probes, work) == got


def test_thresholds_are_seeded():
    one = session.thresholds(1)
    assert one == session.thresholds(1)
    assert one != session.thresholds(2)
    assert sorted(one) != sorted(session.thresholds(2))
    assert len(one) == len(set(one)) == 27


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = [m for m, _, _, _ in tracing.PER_LAYER] + ["bench.trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer


def test_example_config_is_the_bundled_one():
    from valgen._golden import CONFIG

    assert json.loads((BENCH / "configs" / "example.json").read_text()) == CONFIG
