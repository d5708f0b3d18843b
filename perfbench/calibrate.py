"""Machine-speed calibration for the timing metrics.

On a shared 2-core VM the speed of the same code drifts by 30-40% from one
run to the next (same seed, same inputs), because neighbours load the
cores; a median inside a run cannot remove a slowdown that lasts the whole
run.  So the timed loop samples a fixed reference kernel between ops, at
least every ``INTERVAL_S`` -- a plain-Python cyclic Jacobi sweep and a few
small numpy calls, the instruction mix of the library's hot path, but none
of its code and no ``numpy.linalg`` call, so tracing never sees it -- and
scales each round's latencies by ``REFERENCE_S`` over the median kernel
time of that round.  The timing metrics are therefore milliseconds at the
reference speed; the raw figures are printed in the report line beside
them.  Kernel time is never part of an op's latency.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: kernel time on an unloaded core of the reference machine
#: (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4 with scipy-openblas 0.3.31)
REFERENCE_S = 2.7e-3
INTERVAL_S = 0.05

_N = 6
_START = [[1.0 / (i + j + 1) + (i == j) for j in range(_N)] for i in range(_N)]


def kernel() -> float:
    """Fixed work: 20 cyclic Jacobi passes of 4 sweeps on a 6x6 matrix."""
    acc = 0.0
    for _ in range(20):
        a = [row[:] for row in _START]
        for _sweep in range(4):
            for p in range(_N - 1):
                for q in range(p + 1, _N):
                    apq = a[p][q]
                    if apq == 0.0:
                        continue
                    tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    for row in a:
                        rp, rq = row[p], row[q]
                        row[p] = c * rp - s * rq
                        row[q] = s * rp + c * rq
                    ap, aq = a[p], a[q]
                    for i in range(_N):
                        rp, rq = ap[i], aq[i]
                        ap[i] = c * rp - s * rq
                        aq[i] = s * rp + c * rq
        m = np.array(a)
        m = 0.5 * (m + m.T)
        acc += float((m @ m).trace()) + float(m.sum())
    return acc


class Meter:
    """Kernel samples taken between ops, summarised once per round."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append((self.last - t0) / REFERENCE_S)

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def end_round(self) -> float:
        """Median slowdown over the round (above 1 when slower than the reference)."""
        if not self.samples:
            self.sample()
        slow = statistics.median(self.samples)
        self.samples = []
        return slow
