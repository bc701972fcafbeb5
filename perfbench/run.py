"""Benchmark of valgen: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload heavy --seed 3 --seconds 20
    python3 perfbench/run.py --workload example --trace 1

Run it from anywhere inside a source checkout: it measures the package in
``src/`` next to this directory.  Workloads (see README.md for why):

    example      ``valgen build`` of the worked example, default bounds
    heavy        ``valgen ideal`` on the worked example with a higher value
                 ceiling, dominated by the second chain's membership search
    ideal-sweep  threshold queries against one built state (session.py)

Every timed unit runs in its own fresh interpreter, one at a time; this
process only spawns, waits and measures.  Times are read at a reference
host speed by probes timed beside the work (hostspeed.py).  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced run (tracing.py).  A failed output check
makes ``correct`` false and the exit code 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import at_reference, work_at_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CONFIG = BENCH / "configs" / "example.json"

# heavy runs the worked example up to value 113/4: the second chain then
# processes positions up to 31, whose membership search alone takes longer
# than the rest of the chain.  The ceiling 30 of the roadmap takes over
# 130 s per build, beyond the time one run may take.
HEAVY_CEILING = "113/4"
HEAVY_SIGMA = "5"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
# identical hashing in every child and on every commit measured
CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}

WORKLOADS = ("example", "heavy", "ideal-sweep")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(args: list[str], name: str) -> tuple[float, int, float, Path]:
    """Run one child to completion.

    Returns (seconds from spawn to exit, exit code, peak RSS in MB, path of
    its captured stdout).  The child's own rusage gives its peak RSS.
    """
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{name}.out"
    with open(out_path, "wb") as out, open(OUT / f"{name}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=out, stderr=err
        )
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise ChildFailed(f"{name}: no exit within {CHILD_TIMEOUT_S} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return elapsed, proc.returncode, usage.ru_maxrss / 1024, out_path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


# -- the units each workload repeats -------------------------------------------


def build_args(workload: str) -> tuple[list[str], str]:
    """``valgen`` arguments of one timed build and the file whose digest is
    checked (empty: its stdout)."""
    if workload == "example":
        report = OUT / "example-report.json"
        return [
            "build", "--config", str(CONFIG), "--out", str(report), "--quiet",
        ], str(report)
    return [
        "ideal", "--config", str(CONFIG), "--max-value", HEAVY_CEILING,
        "--sigma", HEAVY_SIGMA, "--json",
    ], ""


# probes a set-up child times just before and just after its set-up
SETUP_PROBES = 10


def setup_args(workload: str) -> list[str]:
    """A child that only sets up: import, config and, for a session, build.

    It prints the probes it took around the set-up and the seconds it spent
    in them, as JSON."""
    if workload == "ideal-sweep":
        work = "import session\nsession.set_up()"
    else:
        ceiling = repr(HEAVY_CEILING) if workload == "heavy" else "None"
        work = (
            "import valgen\nfrom valgen.cli import load_config\n"
            f"load_config({str(CONFIG)!r}, None, {ceiling})"
        )
    return [
        sys.executable, "-c",
        f"import sys\nsys.path.insert(0, {str(BENCH)!r})\n"
        "import hostspeed\nprobe = hostspeed.Prober()\n"
        f"p = [probe() for _ in range({SETUP_PROBES})]\n"
        f"{work}\n"
        f"p += [probe() for _ in range({SETUP_PROBES})]\n"
        "import json\nprint(json.dumps({'probes': p, 'spent_s': probe.spent_s}))",
    ]


def scaled(elapsed: float, samples: dict) -> tuple[float, float]:
    """A child's time without its probes: (seconds, seconds at the
    reference host speed).

    The stretches of work the child timed between its probes are scaled
    one by one; the rest (interpreter start and exit) by the median."""
    own = elapsed - samples["spent_s"]
    work = samples.get("work", [])
    rest = at_reference(own - sum(work), samples["probes"])
    return own, rest + work_at_reference(samples["probes"], work)


def run_build(workload: str) -> tuple[float, float, float, bool]:
    """One timed build in a fresh interpreter, probed by hostspeed.py:
    (seconds, seconds at the reference host speed, peak MB, correct)."""
    args, report = build_args(workload)
    probes = OUT / f"{workload}-probes.json"
    elapsed, code, rss, out = spawn(
        [sys.executable, str(BENCH / "hostspeed.py"), "--samples", str(probes), *args],
        workload,
    )
    if code != 0:
        return elapsed, elapsed, rss, False
    own, ref = scaled(elapsed, json.loads(probes.read_text()))
    got = sha256(Path(report) if report else out)
    return own, ref, rss, got == expected()[workload]["sha256"]


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, after one discarded warm-up that
    leaves compiled bytecode behind: (seconds, seconds at the reference
    host speed)."""
    times, refs = [], []
    for rep in range(SETUP_REPEATS + 1):
        elapsed, code, _, out = spawn(setup_args(workload), f"{workload}-setup")
        if code != 0:
            raise ChildFailed(f"{workload}: set-up child exited with {code}")
        if rep:
            own, ref = scaled(elapsed, json.loads(out.read_text()))
            times.append(own)
            refs.append(ref)
    return times, refs


# -- statistics -------------------------------------------------------------------


PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int):
    """The highest listed percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        # in tenths of a percent, so 99.9 is exact
        if n * (1000 - round(p * 10)) >= 10 * 1000:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# -- workloads ---------------------------------------------------------------------


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one run, plus the notes printed beside them."""
    setup_raw, setup = measure_setup(workload)
    notes = [
        f"setup_s is the median of {len(setup)} fresh set-ups "
        f"(unscaled: {statistics.median(setup_raw):.4f} s)"
    ]
    if workload == "ideal-sweep":
        out = OUT / "sweep.json"
        _, code, rss, _ = spawn(
            [sys.executable, str(BENCH / "session.py"), "--seed", str(seed),
             "--seconds", str(seconds), "--out", str(out)],
            "ideal-sweep",
        )
        if code != 0:
            raise ChildFailed(f"ideal-sweep: session exited with {code}")
        res = json.loads(out.read_text())
        walls, raw, rss_all = res["ref_pass_s"], res["pass_s"], [rss]
        attempted, failed = res["attempted"], res["failed"]
        problems = res["problems"]
        lat_ms = [q * 1000 for q in res["query_s"]]
        tail = tail_percentile(len(lat_ms))
        notes.append(
            f"wall_s is the median of {len(walls)} passes over "
            f"{res['queries_per_pass']} thresholds"
        )
        if lat_ms:
            notes.append(
                f"query_p50_ms {percentile(lat_ms, 50):.4f} ms"
                + (f", query_p{tail:g}_ms {percentile(lat_ms, tail):.4f} ms"
                   if tail and tail > 50 else "")
                + f" over {len(lat_ms)} queries"
            )
    else:
        walls, raw, rss_all, problems = [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        # a failed build counts as a failure, never as a time
        while attempted == 0 or time.perf_counter() - start < seconds:
            elapsed, ref, rss, ok = run_build(workload)
            attempted += 1
            if ok:
                walls.append(ref)
                raw.append(elapsed)
                rss_all.append(rss)
            else:
                failed += 1
                problems.append(f"{workload} build {attempted}: wrong output")
        notes.append(f"wall_s is the median of {len(walls)} builds")
    metrics = {}
    if walls:
        notes.append(f"wall_s unscaled: {statistics.median(raw):.4f} s")
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss_all),
        }
    notes.append(f"fail_ratio {failed / attempted:g} ({failed}/{attempted})")
    return {
        "correct": failed == 0 and not problems and bool(walls),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "notes": notes + problems,
    }


def traced(workload: str, seed: int) -> dict:
    """Per-layer metrics of one traced run in a fresh interpreter.

    The tracing overhead is the traced unit's time minus an untraced one:
    a separate build for the build workloads, an untraced pass in the same
    session for ideal-sweep."""
    problems = []
    out = OUT / f"trace-{workload}.json"
    if workload != "ideal-sweep":
        reference_s, _, _, ok = run_build(workload)
        if not ok:
            problems.append(f"{workload}: untraced reference build failed")
    _, code, _, _ = spawn(
        [sys.executable, str(BENCH / "tracing.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        f"{workload}-traced",
    )
    if code != 0:
        raise ChildFailed(f"{workload}: traced child exited with {code}")
    res = json.loads(out.read_text())
    untraced_s = res["untraced_s"] if workload == "ideal-sweep" else reference_s
    overhead = res["unit_s"] - untraced_s
    metrics = res["metrics"]
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    problems += res["problems"]
    notes = [f"traced unit {res['unit_s']:.4f} s, untraced {untraced_s:.4f} s"]
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "metrics": metrics,
        "notes": notes + res["notes"] + problems,
    }


def environment() -> str:
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"PYTHONHASHSEED {CHILD_ENV['PYTHONHASHSEED']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "valgen" / "__init__.py").is_file():
        print(f"error: no valgen sources at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            res = traced(name, args.seed) if args.trace else untraced(
                name, args.seed, args.seconds
            )
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"workload {name}, seed {args.seed}, trace {args.trace}: {environment()}")
        for key, m in res["metrics"].items():
            print(f"  {key:42s} {m['value']!s:>22} {m['unit']}")
        for note in res.pop("notes"):
            print(f"  # {note}")
        print(json.dumps(res), flush=True)
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
