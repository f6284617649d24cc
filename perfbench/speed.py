"""Machine speed, for putting op times on one scale.

The benchmark runs on small shared virtual machines.  When another
tenant loads the sibling core, identical work runs up to about 1.5 times
slower, in phases that last from seconds to minutes, so the same code
measured twice can differ by more than a run-to-run bound allows.  The
worker therefore times two fixed reference loops, which call no hardycap
code, between blocks of ops.  ``factor()`` says how many seconds at
reference speed one second measured now is worth, and every op time is
multiplied by the factor of the calibrations around its block.  The
reference speed is that of the loops' fastest runs on a 2-vCPU virtual
machine (Python 3.11, numpy 2.4), so on that machine a reported time is
about what the op takes when the machine is undisturbed.

The factor is the geometric mean of a pure-Python loop's speed ratio and
a numpy loop's, because the workloads mix interpreter-bound and
array-bound work.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: fastest times of the two loops on the reference machine
PY_REF_S = 1.60e-3
NP_REF_S = 2.26e-3
#: runs of each loop per calibration; the fastest counts
REPEATS = 3

_ARRAY = np.linspace(0.0, 1.0, 200_000)


def _py_loop():
    total, table = 0, {}
    for i in range(20_000):
        total += i * i
        table[i & 255] = total
    return total


def _np_loop():
    return float(np.sum(np.sqrt(_ARRAY) * np.cos(_ARRAY)))


def _fastest(loop):
    perf = time.perf_counter
    best = math.inf
    for _ in range(REPEATS):
        t = perf()
        loop()
        best = min(best, perf() - t)
    return best


def factor():
    """Seconds at reference speed per second measured now."""
    return math.sqrt(PY_REF_S / _fastest(_py_loop) * NP_REF_S / _fastest(_np_loop))
