"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
15-30% over seconds to minutes as other tenants come and go; raw wall
times of the same work then differ from run to run by as much as a
regression bound.  So every timing is taken together with the time of a
fixed reference chunk of pure-Python work (exact Fraction arithmetic and
tuple-keyed dict lookups, the operations betafin's kernel is made of),
sampled from a timer signal every ``INTERVAL_S`` while the timed work
runs, and reported at reference speed:

    reported = measured * CHUNK_NOMINAL_S / (median chunk time nearby)

A reference host is one on which the chunk takes exactly
``CHUNK_NOMINAL_S``.  Time spent in the chunks themselves is subtracted
from the timed work.  The chunk never touches betafin and holds no state
between calls, so it cannot change what betafin computes; a change to
betafin shows in the reported figures in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

CHUNK_NOMINAL_S = 0.001  # chunk time on the reference host, by definition
CHUNK_ROUNDS = 84
INTERVAL_S = 0.02  # one chunk per 20 ms of timed work, about 5% overhead
WINDOW_S = 0.1  # chunks this close to a span measure its speed

_STEP = Fraction(7, 5)
_TABLE = {(i, i % 7, i % 3): i for i in range(CHUNK_ROUNDS)}


def chunk() -> None:
    """A fixed amount of work, independent of everything else."""
    x = Fraction(1, 3)
    acc = 0
    for i in range(CHUNK_ROUNDS):
        x = (x * _STEP + Fraction(1, i + 2)) % 5
        if x > 2:
            x -= 1
        acc += _TABLE[(i, i % 7, i % 3)] + x.numerator % 11


def timed_chunk() -> tuple[float, float]:
    """(start, end) of one chunk, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    chunk()
    end = time.perf_counter()
    if enabled:
        gc.enable()
    return start, end


class SpeedProbe:
    """Samples the chunk time from SIGALRM while timed work runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.times: list[float] = []
        self._total = [0.0]  # _total[i]: seconds in the first i chunks
        self._previous = None

    def sample(self) -> None:
        start, end = timed_chunk()
        self.starts.append(start)
        self.times.append(end - start)
        self._total.append(self._total[-1] + end - start)

    def paused(self, start: float, end: float) -> float:
        """Seconds the probe's own chunks took within [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self._total[hi] - self._total[lo]

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def chunk_time(self, start: float, end: float) -> float:
        """Median chunk time of the samples within WINDOW_S of [start, end],
        or of the nearest sample if none is that close."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            i = min(lo, len(self.starts) - 1)
            if i > 0 and start - self.starts[i - 1] < self.starts[i] - end:
                i -= 1
            return self.times[i]
        return statistics.median(self.times[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured in [start, end] into seconds
        on the reference host."""
        return CHUNK_NOMINAL_S / self.chunk_time(start, end)


def chunk_median(samples: int = 30) -> float:
    """Median chunk time over `samples` chunks run back to back."""
    return statistics.median(e - s for s, e in (timed_chunk() for _ in range(samples)))
