"""Host-speed probe: scales wall times to the reference host's undisturbed speed.

The benchmark shares a 2-core virtual machine with other tenants, and the
speed available to it drifts by up to 2.7x within a minute (the same numpy
loop took 9.4 ms, then 13 ms, then 25 ms). Long runs do not average that
out, because the drift is slower than a run. So the client runs a small fixed
kernel (BLAS, numpy ufuncs, array copies and interpreted Python, the kinds
of work parvts does) between timed regions every PROBE_INTERVAL_S, and scales
each timed interval by REF_MS over the median kernel time of the samples
taken within HALF_WINDOW_S of the interval. Each sample runs the kernel
twice and keeps the second time, so that what parvts did just before (its
working set in the caches) does not leak into the scale; bench/scaling_check.py
checks that. A scaled time reads as the time the same work would take on the
reference host when nothing else runs on it. Raw wall times are printed
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median kept kernel time on the reference host (2-core Intel Xeon VM at
# 2.1 GHz, OpenBLAS 0.3.31, one BLAS thread) when undisturbed: a single run
# read 2.2 ms there, and a first run takes about 6 % longer than the second.
REF_MS = 2.1
PROBE_INTERVAL_S = 0.1
HALF_WINDOW_S = 0.5
MIN_SAMPLES = 5

_rng = np.random.default_rng(20251118)
_A = _rng.standard_normal((64, 64))
_B = _rng.standard_normal((64, 256))
_C = _rng.standard_normal((256, 256))
_MASK = _C > -0.5
_CACHE = _rng.standard_normal((1024, 4, 16))
_ROW = _rng.standard_normal((1, 4, 16))


def kernel() -> None:
    """Fixed work, independent of parvts: small matmuls and softmaxes, a
    masked softmax over a 0.5 MB matrix, 0.5 MB array copies and a dictionary
    loop."""
    for _ in range(2):
        s = _A @ _B
        e = np.exp(s - s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    neg = np.where(_MASK, _C, -np.inf)
    e = np.exp(neg - neg.max(axis=1, keepdims=True))
    e = np.where(_MASK, e, 0.0)
    e /= e.sum(axis=1, keepdims=True)
    for _ in range(4):
        np.concatenate([_CACHE, _ROW])
    tally: dict[int, int] = {}
    for i in range(800):
        tally[i % 17] = tally.get(i % 17, 0) + i


class Probe:
    """Kernel times sampled through a run, and the scaling they imply."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.samples_ms: list[float] = []
        self.cold_ms: list[float] = []

    def sample(self) -> None:
        """Run the kernel twice and keep the second time. The first run
        brings the kernel's data and code back into cache after parvts's
        work, so the kept time does not depend on that work's working set;
        its time is kept apart in `cold_ms`."""
        begin = time.perf_counter()
        kernel()
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.cold_ms.append((middle - begin) * 1e3)
        self.times.append((middle + end) / 2)
        self.samples_ms.append((end - middle) * 1e3)

    def tick(self) -> None:
        """Sample if PROBE_INTERVAL_S has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def scale(self, begin: float, end: float) -> float:
        """REF_MS over the median kernel time near [begin, end]: the samples
        within HALF_WINDOW_S of it, widened to the MIN_SAMPLES nearest."""
        lo = bisect.bisect_left(self.times, begin - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            if lo > 0 and (hi == len(self.times) or begin - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REF_MS / statistics.median(self.samples_ms[lo:hi])

    def scaled_ms(self, begin: float, end: float) -> float:
        return (end - begin) * 1e3 * self.scale(begin, end)
