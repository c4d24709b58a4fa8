"""Machine-speed probe: a fixed interpreter-bound kernel timed between scenarios.

The benchmark's timing metrics are scaled to a reference machine speed.  On
a shared 2-CPU host the speed of one process drifts by 10-40% over seconds
to minutes.  One scenario of each workload was repeated for 150-240 s with
this kernel timed between repeats.  Over blocks of 8-25 s, the scenario's
time varied with a CV of 10.5% (bidisc), 7.3% (polytope) and 7.0% (l1
ball); divided by the kernel's time in the same block, 2.0%, 4.0% and 1.9%.
The kernel is the kind of work holovol's hot loops do: tiny numpy calls and
plain Python arithmetic.  Adding a memory-bound part (a 100k-row batch)
tracked the polytope better within one window (2.5%) but drifted apart from
the bidisc workload between windows minutes apart, so it is left out.  The
kernel does not call holovol, so a slower program still reads slower.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: kernel time at reference speed; scaled timings read as if it took this
REFERENCE_S = 0.006
#: least time between two probe samples
EVERY_S = 0.5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((16, 16))
        self._rows = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent probing, to take out of timed loops
        self._last = -math.inf

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        x = self._small
        for _ in range(300):
            x = np.sin(x) * 0.5 + 0.1
        s, p = self._rows[:, 0], self._rows[:, 1]
        for _ in range(250):
            np.abs(s - np.conj(s) * p) < 1.0 - np.abs(p) ** 2
        acc = 0.0
        for i in range(50_000):
            acc += i * 0.5
        return time.perf_counter() - t0

    def maybe_sample(self) -> None:
        """Time the kernel once if EVERY_S has passed since the last sample."""
        t0 = time.perf_counter()
        if t0 - self._last < EVERY_S:
            return
        self.samples.append(self._kernel())
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def reset(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        self._last = -math.inf

    def slowdown(self) -> float:
        """Median kernel time over the reference: >1 when the machine runs slow."""
        return statistics.median(self.samples) / REFERENCE_S
