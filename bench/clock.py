"""Wall time scaled to a reference machine speed.

The machines this benchmark runs on are shared: for tens of seconds at a
time the same code can run 1.6 times slower than at full speed, which no
number of repeats inside a 10-second run averages out. A :class:`SpeedClock`
therefore samples the machine's speed while it measures: every
``INTERVAL_S`` a SIGALRM handler runs a fixed calibration loop (benchmark
code, which changes to the library cannot touch) and records how long it
took. A measured interval is reported in reference seconds: its wall time,
less the time spent in the handler, times ``REFERENCE_S`` over the
calibration times sampled in it. The handler leaves the library's state
alone, so outputs are the same with and without it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# The calibration loop's time at full speed on the reference machine (2-core
# x86_64 VM, Python 3.11, numpy 2.4): there, at full speed, a reference
# second is a wall second.
REFERENCE_S = 3.6e-4
# Intervals holding fewer samples are scaled by this many nearest samples.
MIN_SAMPLES = 5

_ARRAY = np.arange(64.0)


def calibration_loop() -> float:
    """Interpreter work and small numpy calls, the mix of the library's loops."""
    acc, table = 0.0, {}
    for i in range(900):
        acc += math.hypot(i, acc % 7.0)
        table[i % 50] = acc
        if i % 20 == 0:
            acc += float(np.sqrt(_ARRAY * i).sum())
    return acc


class SpeedClock:
    """Samples the calibration loop while open; converts ``perf_counter``
    intervals to reference seconds. Use as a context manager around
    everything timed."""

    def __init__(self):
        self.starts: list[float] = []  # sample start times, increasing
        self.costs: list[float] = []  # calibration seconds per sample
        self._spent = [0.0]  # prefix sums of costs
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        cost = time.perf_counter() - t0
        self.starts.append(t0)
        self.costs.append(cost)
        self._spent.append(self._spent[-1] + cost)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end): the mean of
        REFERENCE_S / cost over the samples in it, the top and bottom tenth
        left out; the nearest MIN_SAMPLES samples for a short interval."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if lo >= hi:
            return 1.0
        factors = sorted(REFERENCE_S / c for c in self.costs[lo:hi])
        cut = len(factors) // 10
        factors = factors[cut : len(factors) - cut]
        return sum(factors) / len(factors)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of [start, end) less the calibration runs inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - (self._spent[hi] - self._spent[lo])

    def reference_seconds(self, start: float, end: float) -> float:
        return self.wall(start, end) * self.factor(start, end)
