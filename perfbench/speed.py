"""Host-speed calibration: a fixed CPU kernel timed between operations.

The benchmark runs on shared hosts whose speed drifts by about ±20 %
over tens of seconds (other tenants on the same cores).  That drift
moves every time a run measures, so runs of the same code disagree by
more than the regressions the benchmark must catch.  A fixed kernel of
interpreter and NumPy work, timed in thread CPU time between the
operations of a phase, slows down with the host and not with the
program; scaling a phase's times by ``REFERENCE_KERNEL_S / kernel
median`` reports them at the reference host speed.  The raw times and
the factor are kept in the result's details.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median CPU time of :func:`kernel` on the reference host (2 vCPUs,
#: Python 3.11, NumPy 2.4) when it was quiet.
REFERENCE_KERNEL_S = 0.0008
_N = 10_000


def kernel() -> int:
    """Interpreter arithmetic plus a NumPy sort, like the program's mix."""
    s = 0
    for i in range(_N):
        s += i * i
    np.sort(np.arange(_N, dtype=float)[::-1])
    return s


class SpeedProbe:
    """Times :func:`kernel` at most once per ``interval_s`` of wall time."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Run the kernel if the interval has passed (or ``force``).
        Call it between operations, never inside a timed one."""
        now = time.perf_counter()
        if not force and now - self._last < self.interval_s:
            return
        kernel()  # warm caches the program's work just evicted
        c0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - c0)
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Multiply a time measured in this phase by this to get it at
        the reference host speed."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
