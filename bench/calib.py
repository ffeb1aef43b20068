"""Machine-speed calibration for the benchmark's timings.

The machine this benchmark was built on drifts in speed by +-20% within
seconds and by more between minutes, while CPU time tracks wall time: the
process is not preempted, the machine itself runs slower. A fixed kernel
that shares nothing with qotlab is timed right before and right after every
op, and each op's wall time is rescaled to what it would have been had the
kernel taken REFERENCE_S:

    reported = wall * REFERENCE_S / mean(kernel before, kernel after)

Set-up time is rescaled by `factor()`, taken in the same process right
after set-up.

The kernel mixes the three kinds of work the workloads do: a pure-Python
float and dict loop (the per-qubit loops, the lgamma tail, the codec),
single-qubit numpy calls (qsim), and a 64x64 eigh (the no-go algebra).
A change to qotlab cannot move the kernel, so a real speed-up or slow-down
of the program shows in full in the rescaled times.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# kernel time at this machine's usual speed (2 CPUs, numpy 2.4, one BLAS thread)
REFERENCE_S = 3.0e-3

_SYM = np.cos(np.add.outer(np.arange(64.0), np.arange(64.0)) * 0.37)


def kernel() -> float:
    acc = 0.0
    table = {}
    for j in range(2500):
        acc += math.lgamma(j + 1.5)
        table[j & 255] = acc
    v = np.array([0.6, 0.8])
    m = np.eye(2)
    for _ in range(150):
        v = m @ v
        acc += float(np.abs(v).sum())
    for _ in range(3):
        acc += float(np.linalg.eigh(_SYM)[0][0])
    return acc


def measure() -> float:
    """Wall seconds of one kernel run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t



def factor() -> float:
    """REFERENCE_S over the median of nine kernel runs, after two warm runs."""
    kernel()
    kernel()
    return REFERENCE_S / statistics.median(measure() for _ in range(9))
