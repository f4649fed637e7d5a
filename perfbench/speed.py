"""Machine-speed reference measured in the same run.

On a host shared with other tenants, the speed a single-threaded Python
process gets drifts by ±20% within seconds and by up to 1.8x between
runs.  To keep one run comparable with the next, the run times a fixed
reference loop every quarter second (outside any op's timing) and scales
each wall time by ``NOMINAL_S / reading``, where the reading is the
median of the eight readings around it: a single reading is itself noisy,
while the slow periods worth correcting last seconds.  A scaled time is
therefore the wall time the op would have taken had the machine run the
reference loop in ``NOMINAL_S``.  Raw wall times are reported next to the
scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The reference loop's time on the 2-vCPU VM the first baseline was
#: recorded on (median reading); the scale factor is 1.0 at this speed.
NOMINAL_S = 0.0025
#: Minimum wall seconds between readings during a timed phase.
INTERVAL_S = 0.25


_ARRAY = np.random.default_rng(0).random(20_000)


def reference_loop() -> float:
    """Best of three timings of a fixed mix of interpreter-bound work
    (dict updates, integer arithmetic) and numpy array work (a sort and a
    unique), like the mix the database itself does.  The collector is
    off while it runs: a collection here would time the program's heap,
    not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            counts: dict[int, int] = {}
            total = 0
            for i in range(10_000):
                counts[i & 255] = counts.get(i & 255, 0) + i
                total += i * i % 7
            np.unique((np.sort(_ARRAY) * 1000).astype(np.int64))
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedReference:
    """Readings of :func:`reference_loop` over one phase of a run."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._due = 0.0

    def read(self) -> int:
        """Take a reading now; returns its index."""
        self.readings.append(reference_loop())
        self._due = time.perf_counter() + INTERVAL_S
        return len(self.readings) - 1

    def read_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.read()

    @property
    def latest(self) -> int:
        return len(self.readings) - 1

    def scale(self, index: int) -> float:
        """Scale factor for work done between reading ``index`` and the
        next one (or after the last one): the median of up to four
        readings on each side."""
        around = self.readings[max(0, index - 3):index + 5]
        return NOMINAL_S / statistics.median(around)
