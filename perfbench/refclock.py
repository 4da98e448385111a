"""Reference-speed timing.

On a shared machine the CPU speed seen by one process drifts by up to a
factor of two within seconds, and the drift slows the program and any other
interpreted code alike. So every timed interval is bracketed by runs of a
fixed standard-library calibration workload, and the end-to-end times are
reported at reference speed: wall time * REF_CAL_S / (median of the
latest calibration times). Raw wall times are reported beside them.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from itertools import combinations

# The calibration time that defines reference speed: about its median on
# the 2-core x86-64 machine where the benchmark was written (Python 3.11).
REF_CAL_S = 0.0096
# how many of the latest calibration times the speed is the median of
WINDOW = 3

_ADJ = {i: frozenset(((i * 7) % 900, (i * 13) % 900, (i + 1) % 900, (i * 31 + 5) % 900))
        for i in range(900)}


class _Graph:
    def __init__(self, adj: dict[int, frozenset[int]]) -> None:
        self.adj = adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


_GRAPH = _Graph(_ADJ)


def _workload() -> int:
    # set, dict, tuple and sort traffic, like the program's inner loops
    pairs = []
    for v in range(900):
        for u in sorted(_ADJ[v]):
            if _ADJ[u] & _ADJ[v] or u != v:
                pairs.append((u, v) if u < v else (v, u))
    seen = set(pairs)
    # combinations and method calls, like its recognition scans: machine
    # load slows these by another factor than the part above
    found = 0
    for quad in combinations(range(18), 4):
        found += sum(1 for u, v in combinations(quad, 2) if _GRAPH.has_edge(u, v))
    return len(sorted(seen)) + found


def calibrate() -> float:
    """Wall seconds of one run of the calibration workload."""
    t0 = time.perf_counter()
    _workload()
    return time.perf_counter() - t0


class SpeedGauge:
    """Machine speed as the median of the last few calibration times. The
    median ignores a calibration that a collector pass or a preemption
    happened to slow, which would otherwise shrink the interval it scales."""

    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=WINDOW)

    def sample(self) -> None:
        self.samples.append(calibrate())

    def scale(self) -> float:
        """Factor turning wall seconds measured now into reference-speed
        seconds."""
        return REF_CAL_S / statistics.median(self.samples)
