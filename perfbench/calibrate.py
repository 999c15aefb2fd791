"""Machine-speed calibration: a fixed kernel timed next to every query.

The benchmark runs on a VM whose cores are shared with other machines.
Their load changes how fast the same code runs by up to a factor of 2-3
over seconds to minutes, which is far more than the bounds in
BENCHMARK.json allow.  The kernel below is the benchmark's own code and
never changes with the program, so its time measures only the machine's
current speed.  The runner times it after every query and reports times
scaled to reference speed:

    reference seconds = wall seconds * REF_S / (kernel time measured next to it)

The kernel mixes what the program spends its time on: a pure-Python
integer loop, sorting and indexing small float tuples, and numpy
broadcasting over a few hundred points.  It runs with the garbage collector
off: otherwise its time would depend on how many objects the workload holds,
not only on the machine.  Everything it allocates is freed by reference
counting before it returns, so no collection work is left for the queries.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

import numpy as np

# Median kernel time on the 2-core x86 VM (Python 3.11.7, numpy 2.4.6) the
# benchmark was written on.  Only a scale: it makes a reference second about
# one wall second on that VM at its usual speed.
REF_S = 0.008

_A = np.random.default_rng(1).random((400, 2)) + 0.5
_B = np.random.default_rng(2).random((300, 2)) + 0.5
_BUF = np.empty((2, 400, 300))  # preallocated, so the kernel maps no fresh pages


def kernel() -> float:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    rng = random.Random(1)
    pts = sorted((rng.random(), rng.random()) for _ in range(2000))
    by_index = dict(enumerate(pts))
    total = 0.0
    for i in range(len(pts)):
        x, y = by_index[i]
        total += math.atan2(y - x, x + 1.0) if x < y else max(x, y)
    for _ in range(4):
        np.divide(_A[:, None, 0], _B[None, :, 0], out=_BUF[0])
        np.divide(_A[:, None, 1], _B[None, :, 1], out=_BUF[1])
        np.maximum(_BUF[0], _BUF[1], out=_BUF[0])
        total += float(_BUF[0].min(axis=0).max())
    return total + acc


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scales(kernel_s: list[float]) -> list[float]:
    """Per-sample factor REF_S / kernel time, each from the median of the sample and its two neighbours."""
    return [REF_S / statistics.median(kernel_s[max(0, i - 1) : i + 2]) for i in range(len(kernel_s))]


if __name__ == "__main__":
    time_kernel()
    samples = [time_kernel() for _ in range(200)]
    q = statistics.quantiles(samples, n=4)
    print(f"kernel: median {statistics.median(samples) * 1e3:.3f} ms, quartiles {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms")
