"""Host speed: a fixed probe of pure-Python work, timed beside the measured work.

The host's speed drifts by up to 2x, in phases of seconds to minutes, and
user CPU time tracks wall time, so a whole run can fall into a slow phase.
A probe is a fixed piece of pure-Python work: ``Fraction`` arithmetic and
dict traffic, like valgen's own exact arithmetic, then a chain of loads
through a 2 MB table, like valgen's walks over its memos.  Timed in the
same thread right beside the measured work, it shows how fast the host
runs at that moment.  ``at_reference`` and ``work_at_reference`` turn a
measured time into the time at the host speed where one probe takes
``PROBE_REF_S``.

Run as a script, it is the wrapper of one timed build: it runs
``valgen.cli.main`` on the remaining arguments while a timer signal times
one probe every ``PERIOD_S``, and writes the probe times to ``--samples``:

    python3 perfbench/hostspeed.py --samples probes.json build --config c.json --out r.json
"""
from __future__ import annotations

import signal
import sys
import time
from array import array
from fractions import Fraction

# about the median probe time between two ideal-sweep queries on the
# 2-vCPU host of README.md; any fixed value does, since both commits of a
# comparison are scaled by the same constant
PROBE_REF_S = 0.0004
# a probe every 50 ms costs a build about 1 % of its time
PERIOD_S = 0.05
# probes on each side of a stretch of work whose median gives its host
# speed, so that one probe hit by an interrupt does not count
WINDOW = 2

# i -> (A*i + C) mod 2**18 runs through every slot in one cycle (C odd,
# A = 1 mod 4), in an order that defeats the prefetcher
TABLE_SLOTS = 1 << 18
TABLE_STEPS = 800


class Prober:
    """Times probes.  ``spent_s`` is the time spent in them, building the
    table included: the benchmark's own share of a measured time, which
    callers take out of it."""

    def __init__(self):
        t0 = time.perf_counter()
        # from a generator, so no list of a quarter million ints lifts the
        # peak RSS
        self._table = array(
            "q", ((1103515245 * i + 12345) % TABLE_SLOTS for i in range(TABLE_SLOTS))
        )
        self.spent_s = time.perf_counter() - t0

    def __call__(self) -> float:
        """Seconds one probe takes right now."""
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 40):
            f = Fraction(i % 97 + 1, i % 13 + 2)
            acc += f * f
            seen[(i % 50, i % 7)] = acc < i
        table, slot = self._table, 0
        for _ in range(TABLE_STEPS):
            slot = table[slot]
        took = time.perf_counter() - t0
        self.spent_s += took
        return took


def at_reference(seconds: float, probes: list[float]) -> float:
    """``seconds`` as they would read at the reference host speed, by the
    median of the probes taken during them."""
    import statistics  # here, so that a set-up child need not import it

    return seconds * PROBE_REF_S / statistics.median(probes)


def work_at_reference(probes: list[float], work: list[float]) -> float:
    """Seconds of work at the reference host speed, stretch by stretch.

    ``work[i]`` ran right after ``probes[i]``, and each stretch is scaled by
    the median of the probes near it.  One median for a whole unit would
    be wrong when the speed changes inside it: in a unit that ran half its
    work at full speed and half at half speed, two thirds of the probes
    are slow, so their median would scale the quick half as slow too."""
    import statistics

    return sum(
        w * PROBE_REF_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 2])
        for i, w in enumerate(work)
    )


class Sampler:
    """Times a probe every PERIOD_S while the block runs, and the work
    between two probes: ``work[i]`` ran between ``probes[i]`` and
    ``probes[i + 1]``.

    The probe runs in the signal handler, so in the measured thread and on
    the CPU it runs on: a thread of its own could be woken on the other
    CPU, whose speed drifts apart from this one's."""

    def __init__(self):
        self.probe = Prober()
        self.probes: list[float] = []
        self.work: list[float] = []

    def _probe(self):
        self.probes.append(self.probe())
        self._last = time.perf_counter()

    def _tick(self, signum, frame):
        self.work.append(time.perf_counter() - self._last)
        self._probe()

    def __enter__(self):
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)


def main(argv=None) -> int:
    import json

    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[0] != "--samples":
        print("usage: hostspeed.py --samples PATH VALGEN_ARGS...", file=sys.stderr)
        return 2
    with Sampler() as sampler:
        from valgen.cli import main as valgen_main

        code = valgen_main(argv[2:])
    with open(argv[1], "w") as out:
        json.dump(
            {"probes": sampler.probes, "work": sampler.work,
             "spent_s": sampler.probe.spent_s},
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
