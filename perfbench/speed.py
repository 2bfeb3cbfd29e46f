"""Host-speed normalisation for the end-to-end times.

The benchmark shares its cores with other tenants, and there the speed of
one core drifts by 20% and more over seconds to minutes, which swamps the
differences a benchmark must resolve.  So a fixed reference computation,
stdlib exact arithmetic that runs no phforge code, is timed before each
operation, every ``INTERVAL_S`` during it (from a timer signal) and after
it.  An operation's time, with the probes taken out, is scaled by
``NOMINAL_S`` over the mean reference time around it: the seconds it would
take on a host where the reference takes ``NOMINAL_S``.  Raw wall times are
printed next to the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

from spans import covered_length

NOMINAL_S = 0.010  # about the reference time on one unloaded core of a 2-vCPU Xeon VM
INTERVAL_S = 0.2


def reference() -> float:
    """Seconds for a fixed exact-arithmetic loop, the unit of host speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 2000):
        total += Fraction(k % 89 + 1, k % 997 + 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the reference around the code it wraps, and with an
    ``interval`` also during it."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.pauses: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(reference())
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        self._sample()
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def normalise(self, start: float, seconds: float) -> float:
        """Time of the interval without probes, at the nominal host speed."""
        busy = seconds - covered_length(self.pauses, start, start + seconds)
        return busy * NOMINAL_S / statistics.fmean(self.samples)
