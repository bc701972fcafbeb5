"""The traced benchmark run, end to end.

A traced run fails when a hook it needs saw no calls, which happens when
a change stops calling a function the tracer wraps (perfbench/tracing.py,
``HOT``).  The untraced tests cannot see that, so this one runs
``perfbench/run.py --workload all --trace 1`` as the benchmark does.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # each workload prints a header line, its metrics and notes, then its
    # result as one JSON line
    correct = {}
    name = None
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(",")
        elif line.startswith("{"):
            correct[name] = json.loads(line)["correct"]
    assert correct == {"example": True, "heavy": True, "ideal-sweep": True}
    # an absent hook reports null metrics instead of failing the run
    assert "absent hooks" not in proc.stdout
