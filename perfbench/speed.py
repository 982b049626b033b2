"""Host speed, sampled by a timer while the benchmark runs.

The shared 2-vCPU host this benchmark was written on switches between a
fast and a slow phase (about 1.6x apart) every few seconds to minutes, and
every wall time moves with it: the quartiles of ten raw runs of one
workload lay up to 0.4 of their median apart.  So every time the benchmark
reports is scaled by the speed seen while it was taken.  Every PERIOD_S a
timer signal runs a fixed pure-Python loop and records how long it took.  A
timed interval is cut at these samples; each piece is multiplied by
NOMINAL_S over the mean duration of the two samples around it, and the
samples' own time is left out.  Reported times therefore read as seconds at
the speed where the loop takes NOMINAL_S, which is the host's slow phase.
Each result prints the median of NOMINAL_S over the loop's duration as
``speed_scale``; dividing a reported time by it gives back roughly the raw
seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter

LOOP_ITERATIONS = 20_000
NOMINAL_S = 0.002
PERIOD_S = 0.1


def _loop() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return perf_counter() - t0


class Speed:
    """Speed samples: when each started and how long the loop took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, *_) -> None:
        start = perf_counter()
        took = _loop()
        self.at.append(start)
        self.took.append(took)

    @contextlib.contextmanager
    def sampling(self):
        """Sample at the start, every PERIOD_S inside the block, and at its end."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def _factor(self, i: int) -> float:
        """Scale for the stretch that ends where sample i starts."""
        lo, hi = max(i - 1, 0), min(i, len(self.at) - 1)
        return 2 * NOMINAL_S / (self.took[lo] + self.took[hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the nominal speed, less the samples taken inside."""
        i = bisect.bisect_left(self.at, t0)
        total, start = 0.0, t0
        while i < len(self.at) and self.at[i] < t1:
            total += (self.at[i] - start) * self._factor(i)
            start = self.at[i] + self.took[i]
            i += 1
        return total + (t1 - start) * self._factor(i)

    def median_scale(self) -> float:
        return NOMINAL_S / sorted(self.took)[len(self.took) // 2]


class RawSpeed(Speed):
    """No scaling, for traced runs: their spans are raw seconds."""

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0
