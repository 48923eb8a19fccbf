"""The host's speed, sampled while a timed section runs.

On a shared host each core flips between a fast and a slow state (about 2x
apart, independently per core) within seconds, so the raw wall times of one
command spread by tens of percent from run to run.  While a section runs, a
SIGALRM handler times a short fixed loop every SAMPLE_INTERVAL_S of wall
time, in the section's own thread and so on its core.  The section's scaled
seconds are its wall time, the loops taken out, times the mean speed of its
samples (NOMINAL_S over loop seconds): the seconds it would take on a host
where the loop always takes NOMINAL_S.

Standard library only, so that the cold set-up probe can use it before it
imports numpy.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.025
LOOP_ITERATIONS = 2000
NOMINAL_S = 0.0003


def reference_loop() -> float:
    """Seconds one fixed mix of dict, int and float work takes, the kind of
    work the package's per-state loops do."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        table[i & 1023] = i
        total += (i & 63) * 0.5
        if i % 50 == 0:
            total += math.log1p(math.exp(-total * 1e-6))
    return time.perf_counter() - start


class HostSpeed:
    """Times sections with the host's speed sampled during each; keeps every
    loop time it took in ``samples``."""

    def __init__(self):
        self.samples: list[float] = []

    def timed(self, fn, *args):
        """``fn(*args)`` timed: (its value, raw seconds, scaled seconds).

        Raw seconds are the wall time without the sampling loops.  One loop
        runs after the section too, so a section shorter than the interval
        still has a sample.
        """
        loops: list[float] = []

        def on_alarm(signum, frame):
            loops.append(reference_loop())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            inside = sum(loops)
            signal.signal(signal.SIGALRM, previous)
        loops.append(reference_loop())
        self.samples.extend(loops)
        raw = wall - inside
        return value, raw, raw * statistics.fmean(NOMINAL_S / t for t in loops)
