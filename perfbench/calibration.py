"""Fixed reference work that the benchmark's timings are scaled by.

On a shared machine, other tenants can slow all code by 1.5 to 2 times for
many seconds at a time. The benchmark times this computation just before
each unit, on the same CPU, and divides the unit's time by it. Slowdowns
that hit both cancel out. The computation never changes and uses no
``recal`` code, so only the program can move the ratio.

Its mix resembles the solvers: a Python loop of small numpy vector
operations (sigmoid, dot), then sorts with tie merging. It takes ~30 ms on
a 2-vCPU Intel Xeon virtual machine with Python 3.11 and numpy 2.4.

Set-up is mostly importing numpy and scipy, work of another kind: file
reads, unmarshalling and module code. Its reference is a fresh interpreter
timing ``REFERENCE_IMPORT``, recal's third-party imports, run after each
set-up probe. ``setup_s`` is the median set-up time over the median
reference time, times ``REFERENCE_IMPORT_S``, the reference's time on the
machine above when no other tenant slows it. It reads as seconds on that
machine.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_IMPORT = (
    "import time; t0 = time.perf_counter(); import numpy, scipy.special; "
    "print(repr(time.perf_counter() - t0))"
)
REFERENCE_IMPORT_S = 0.30

_X = np.linspace(-3.0, 3.0, 2049)
_W = np.full(_X.size, 1.0 / _X.size)


def reference_work() -> float:
    acc = 0.0
    for k in range(2000):
        acc += float(np.dot(_W, 1.0 / (1.0 + np.exp(-(1.1 * _X + k * 1e-3)))))
    for k in range(100):
        _, inverse = np.unique(np.sin(_X * (3.0 + k)), return_inverse=True)
        acc += float(np.bincount(inverse, weights=_W).sum())
    return acc


def timed() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
