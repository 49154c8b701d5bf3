"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a shared virtual machine whose speed changes by up
to 1.8x, over periods from seconds to tens of minutes (see README.md).
So a run also times a fixed kernel between units of work.  The kernel
does the same kind of work as quiverhom, but runs no quiverhom code: it
row-reduces small int64 matrices over GF(101), driven from Python.  Each
timed interval is scaled by ``NOMINAL_S / c``, where ``c`` is the mean of
the kernel samples just before and just after it.  The result reads as
seconds on a machine where one kernel call takes NOMINAL_S.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

NOMINAL_S = 0.05
# A sample is taken between two items once this much time has passed
# since the last one, so samples cover long passes evenly.
INTERVAL_S = 0.5
_P = 101
_ROUNDS = 36


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20081118)
    return [rng.integers(0, _P, size=(int(rng.integers(2, 9)), int(rng.integers(2, 12)))) for _ in range(50)]


def _row_reduce(m: np.ndarray) -> int:
    r = m.copy()
    rows, cols = r.shape
    lead = 0
    for c in range(cols):
        if lead >= rows:
            break
        nz = np.nonzero(r[lead:, c])[0]
        if nz.size == 0:
            continue
        k = lead + int(nz[0])
        if k != lead:
            r[[lead, k]] = r[[k, lead]]
        r[lead] = (r[lead] * pow(int(r[lead, c]), _P - 2, _P)) % _P
        col = r[:, c].copy()
        col[lead] = 0
        r = (r - np.outer(col, r[lead])) % _P
        lead += 1
    return lead


class Calibrator:
    """Kernel samples in time order, and the scale factors they give."""

    def __init__(self):
        self._matrices = _matrices()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self):
        t0 = perf_counter()
        for _ in range(_ROUNDS):
            for m in self._matrices:
                _row_reduce(m)
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def between(self):
        """Take a sample if INTERVAL_S has passed since the last one."""
        if perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def spent(self, start: float, end: float) -> float:
        """Seconds of sampling inside [start, end]."""
        i, j = bisect_left(self.starts, start), bisect_right(self.ends, end)
        return sum(self.times[i:j])

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the samples just before start and just after end."""
        before = self.times[bisect_right(self.ends, start) - 1]
        after = self.times[bisect_left(self.starts, end)]
        return 2 * NOMINAL_S / (before + after)
