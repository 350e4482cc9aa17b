"""Reference kernel that tracks the speed of the machine during a run.

The host's speed swings by up to 2x over seconds to minutes (see README,
*Noise*), far more than any bound the benchmark could keep.  The worker
therefore times this fixed kernel every CAL_INTERVAL_S, between operations
and during them, and run.py reports every time in *reference seconds*:

    reference seconds = measured seconds * REF_NOMINAL_S / kernel time nearby

A change to waldrates cannot move the kernel, which imports none of it; a
change of host speed moves both alike and cancels.  The kernel mixes the
work waldrates does: exact Fraction arithmetic (polycore, rates), small
numpy linear algebra (simulate) and plain interpreter work.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# kernel time that one reference second stands for: the median kernel time
# on the 2-core VM where the benchmark was written, in its faster state
REF_NOMINAL_S = 0.008
# seconds between two samples
CAL_INTERVAL_S = 0.05

_MATRIX = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
                    [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.5]])


def kernel() -> float:
    """Fixed work of about REF_NOMINAL_S; returns a checksum so none is skipped."""
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    m = _MATRIX.copy()
    s = 0.0
    for _ in range(300):
        s += float(np.linalg.eigvalsh(m)[0])
        m[0, 0] += 1e-9
    d: dict[int, int] = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i * i
    return float(acc) + s + sum(d.values())


def sample(runs: int = 1) -> float:
    """Median time of ``runs`` kernel runs, in seconds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
