"""Calibration of timings against fixed reference kernels.

The benchmark's host shares its cores with other tenants, and its speed
drifts by 20-50% over tens of seconds.  The drift does not slow all code
alike: interpreter-bound code (the recursion, the chain) slows far more than
vectorised numpy and scipy loops.  So each workload is calibrated by a
kernel of its own kind of work (``ops.REFERENCE``): each op's time is
divided by the kernel's time measured right before and right after it, and
multiplied by the kernel's nominal time.  The result is still in seconds,
"at nominal speed"; on a quiet host it is close to the raw time.  The
kernels use nothing of the program, so a change to the program moves
calibrated times as it moves raw ones.  Raw medians are reported beside
the calibrated ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import expi


def _interpreted() -> None:
    """Python arithmetic and ``math`` calls, numpy dispatch on scalars, dict churn."""
    acc = 0.0
    for i in range(1, 8000):
        x = float(i)
        acc += float(np.log(np.asarray(x))) + math.exp(-x * 1e-4)
    table = {}
    for i in range(40_000):
        table[i % 997] = (i, i * 0.5)


def _vectorized() -> None:
    """Special functions on arrays and strided writes (a sieve)."""
    grid = np.linspace(2.0, 1e6, 30_000)
    float(expi(np.log(grid)).sum() + np.exp(-np.sqrt(np.log(grid))).sum())
    flags = np.ones(2_000_000, dtype=bool)
    for p in (3, 5, 7):
        flags[p * p:: p] = False


def _mixed() -> None:
    _interpreted()
    _vectorized()


KERNELS = {"interpreted": _interpreted, "vectorized": _vectorized, "mixed": _mixed}

#: Each kernel's time on a quiet 2-core Xeon host (Python 3.11, numpy 2.4).
NOMINAL_S = {"interpreted": 0.014, "vectorized": 0.013, "mixed": 0.028}


def reference_kernel(kind: str) -> float:
    """Seconds taken by the fixed reference work of one kind."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


def calibrated(seconds: float, ref_s: float, kind: str) -> float:
    return seconds * NOMINAL_S[kind] / ref_s
