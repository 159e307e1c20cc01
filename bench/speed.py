"""Reference-speed clock: corrects timings for the host's changing speed.

On a shared host the same work can take 1.5 times longer from one
minute to the next, as neighbours contend for the cores and the memory
system.  The probe samples that speed while a workload runs: every
PERIOD_S a SIGALRM handler runs a fixed loop of the interpreter's
everyday work (integer arithmetic, then small tuples, strings and dict
inserts) and times it.  The probe's own time is excluded from
``clock()``.  A probe's speed factor is NOMINAL_S over its time, and a
timed interval's reference duration is its measured duration times the
mean factor of the probes taken within WINDOW_S of it: an estimate of
the seconds the work would take at the speed where one probe takes
NOMINAL_S, "reference seconds".  Raw seconds are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

PERIOD_S = 0.025
WINDOW_S = 0.1
NOMINAL_S = 0.0002


def _probe_loop() -> None:
    total = 0
    for i in range(3000):
        total += i
    table = {}
    for i in range(300):
        table[i] = (i, str(i))


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # clock() at each sample
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter() minus the time the probe itself has taken."""
        return time.perf_counter() - self.spent

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_loop()
        elapsed = time.perf_counter() - start
        self.times.append(start - self.spent)
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self) -> float:
        """Reference seconds per measured second over all samples taken."""
        return statistics.fmean(NOMINAL_S / sample for sample in self.samples)

    def reference(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Reference durations of (start, end) clock() intervals."""
        times = self.times
        total = [0.0, *accumulate(NOMINAL_S / sample for sample in self.samples)]
        durations = []
        for start, end in intervals:
            lo = bisect_left(times, start - WINDOW_S)
            hi = bisect_right(times, end + WINDOW_S)
            if lo == hi:  # no sample near: use the closest one
                lo = min(lo, len(times) - 1)
                hi = lo + 1
            durations.append((end - start) * (total[hi] - total[lo]) / (hi - lo))
        return durations
