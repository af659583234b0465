"""Machine-speed calibration for the benchmark's latency metrics.

On a shared VM the same operation runs up to 1.6x slower while other
tenants load the host, in stretches of seconds to minutes. That slowdown
also shows in process CPU time. A fixed kernel timed right before and right
after each operation slows down with it. So `latency * REFERENCE_S /
kernel_time` keeps the program's own cost and drops most of the machine's
state. The scale for one operation is the median of the kernel times
around it, so a single interrupted kernel run does not move it. The kernel
is the numeric core of what heatinv does on its records: a vector `exp`, a
prefix sum and a tall LAPACK least-squares solve on 30 001 rows. Of the
kernels tried on 2 s blocks over 150 s (a pure-Python loop, many small
numpy calls, this one, and the same on 400 001 elements), it tracked the
load-dependent speed of both invert-long and noise-study best. It never
calls heatinv, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: kernel time that defines "reference speed": normalised latencies are the
#: milliseconds an operation takes on a machine that runs the kernel in
#: exactly this long (the 2-vCPU Xeon VM it was tuned on needs 2.5-4 ms)
REFERENCE_S = 3.0e-3
#: kernel times on each side of an operation that set its scale
WINDOW = 3


class Calibration:
    """Calling an instance runs the fixed kernel once and returns its seconds."""

    def __init__(self):
        x = np.linspace(0.0, 1.0, 30001)
        self._x = x
        self._design = np.exp(-np.outer(x, np.arange(1, 5)))

    def _kernel(self) -> None:
        for rate in (2.0, 3.0):
            y = np.exp(-rate * self._x)
            np.linalg.lstsq(self._design, np.cumsum(y), rcond=None)

    def __call__(self) -> float:
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0


def normalised(latencies: list[float], kernel_s: list[float]) -> list[float]:
    """Latency k scaled to reference speed by the kernel times around it.

    `kernel_s` has one more entry than `latencies`: entry k precedes
    operation k and entry k + 1 follows it.  Operation k is scaled by the
    median of up to WINDOW entries before it and WINDOW after it.
    """
    if len(kernel_s) != len(latencies) + 1:
        raise ValueError("need one kernel time before each operation and one after the last")
    return [
        lat * REFERENCE_S / statistics.median(kernel_s[max(0, k + 1 - WINDOW): k + 1 + WINDOW])
        for k, lat in enumerate(latencies)
    ]
