"""A fixed job that measures how fast the host runs at the moment.

The host this benchmark was written on runs the same code at speeds that
differ by up to 1.7x, in phases from seconds to minutes (see "Statistics" in
README.md).  A command's wall time divided by the time of this job, taken
right before and after it, cancels most of that.  The job mixes the kinds of
work ``cecplane`` does: dict and tuple work in the interpreter, many small
numpy calls from a Python loop, and one large array filled and sorted.  It
uses neither the package nor its inputs, so no change to the program can
change it.
"""

from __future__ import annotations

import time

import numpy as np

# Reported times are "seconds at the speed where calibrate() takes this
# long": wall time * REFERENCE_S / calibration time.  The value is the
# calibration's typical time on the 2-vCPU host of the reference figures.
REFERENCE_S = 0.25

_VECTOR = np.linspace(0.0, 1.0, 64)


def calibrate(reps: int = 3) -> float:
    """Wall seconds of ``reps`` passes of the fixed job."""
    start = time.perf_counter()
    for _ in range(reps):
        counts: dict = {}
        for i in range(40_000):
            key = tuple(sorted((i % 13, i % 7, i % 5, i % 3)))
            counts[key] = counts.get(key, 0) + 1
        acc = 0.0
        for i in range(6_000):
            k = i % 60
            acc += float(_VECTOR[:k + 4] @ _VECTOR[k + 3::-1])
        np.argsort(np.sin(np.arange(300_000) * 0.37), kind="stable")
    return time.perf_counter() - start
