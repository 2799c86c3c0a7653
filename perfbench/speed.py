"""Machine-speed correction for timings taken on a shared machine.

On a shared machine the same computation can take twice as long from one
minute to the next. A run therefore interleaves a fixed reference loop with
its timings. The loop does the two kinds of work the package's hot loops do,
dict updates along adjacency lists (push) and one random draw per step
along them (walks), over a fixed random structure; it never calls the
package.
Each timing is scaled by NOMINAL_S / (median reference time around it), so
figures read as if measured on a machine where the reference loop takes
NOMINAL_S. A change to the program moves the scaled figures exactly as it
moves the raw ones; a change in machine speed mostly cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.010
WINDOW_S = 1.5  # reference samples within this distance of a timing count
INTERVAL_S = 0.25  # sampling period while queries run


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        size = 20_000
        self._adj = rng.integers(size, size=(size, 3)).tolist()
        self._order = rng.permutation(size)[:3_000].tolist()
        self.times: list[float] = []
        self.durations: list[float] = []

    def _reference(self) -> int:
        adj = self._adj
        acc: dict[int, float] = {}
        for u in self._order:
            for v in adj[u]:
                acc[v] = acc.get(v, 0.0) + 0.5
        rand = np.random.default_rng(1).random
        u = 0
        for _ in range(4_000):
            u = adj[u][int(rand() * 3)]
        return len(acc) + u

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._reference()
            self.times.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def sample_due(self) -> None:
        """Sample when INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float | None = None) -> float:
        """NOMINAL_S over the median reference time near [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, (t0 if t1 is None else t1) + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:  # no sample close by: use the nearest one
            near = [self.durations[min(lo, len(self.durations) - 1)]]
        return NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.durations)
