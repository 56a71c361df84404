"""Host-speed sampling, so that timings can be scaled to a fixed host speed.

On a shared 2-core host the same op's time drifts by up to ±25% over spans
of seconds to minutes, with CPU time tracking wall time: other tenants slow
the core, not the scheduler.  Medians within a 30 s run cannot remove a drift
that lasts longer than the run.  So while ops run, a wall-clock timer
(SIGALRM) runs a fixed reference kernel every ``INTERVAL_S`` seconds in the
benchmark process.  An op's time is measured net of those pauses, then
multiplied by the mean speed factor ``REF_NOMINAL_S / reference time`` of
the samples taken within ``WINDOW_S`` of the op.  The result is the op's
time on a host where the kernel takes ``REF_NOMINAL_S`` (about its time on
the 2-core Xeon the benchmark was tuned on).  The kernel shares nothing with
cvortho, so a change to cvortho does not move the factor.
"""

from __future__ import annotations

import signal
import time

REF_NOMINAL_S = 0.0025
INTERVAL_S = 0.2
WINDOW_S = 1.0
_REF_DIM = 120
_REF_LOOP = 10000


class HostSpeed:
    """Context manager that samples the reference kernel on a timer."""

    def __init__(self):
        import numpy as np

        m = np.random.default_rng(0).normal(size=(_REF_DIM, _REF_DIM))
        self._matrix = m + m.T
        self._eigh = np.linalg.eigh
        self.samples = []  # (start, pause, kernel time)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_time(self) -> float:
        start = time.perf_counter()
        self._eigh(self._matrix)
        total = 0
        for i in range(_REF_LOOP):
            total += i * i
        return time.perf_counter() - start

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel = self.reference_time()
        self.samples.append((start, time.perf_counter() - start, kernel))

    def paused(self, start: float, end: float) -> float:
        """Time spent sampling between ``start`` and ``end``."""
        return sum(pause for at, pause, _ in self.samples if start <= at < end)

    def factor(self, start: float, end: float) -> float:
        """Mean of REF_NOMINAL_S / kernel time over samples near [start, end]."""
        near = [REF_NOMINAL_S / kernel for at, _, kernel in self.samples
                if start - WINDOW_S <= at <= end + WINDOW_S]
        near = near or [REF_NOMINAL_S / self.reference_time()]
        return sum(near) / len(near)
