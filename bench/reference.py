"""A fixed reference computation that measures the current speed of the host.

On a small shared machine the speed of one core drifts by 20-50% over
seconds to minutes, as other tenants load the host; the same case then takes
that much longer, whatever the package does.  The benchmark runs this
reference before every case and reports case CPU times at a nominal host
speed: each case's CPU time is scaled by NOMINAL_S over the local median of
the reference's CPU time.  CPU time leaves out the time the hypervisor gives
the core to other tenants, which wall time would count.  The reference mixes interpreted Python calls with small
LAPACK calls, as the package does, and creates no container objects, so
that the garbage collector never runs inside it.
"""

from __future__ import annotations

import time

import numpy as np

#: the reference's typical CPU time on the host the benchmark was written on
#: (2-vCPU Xeon VM at 2.0 GHz, CPython 3.11, numpy 2.4, one BLAS thread)
NOMINAL_S = 1.0e-3
#: reference samples on each side of a case that set its speed estimate
WINDOW = 5

_A = np.random.default_rng(12345).standard_normal((16, 16))
_B = _A @ _A.T + 16.0 * np.eye(16)
_b = np.ones(16)


def _step(k: int) -> int:
    return k * k % 7


def run() -> float:
    """Run the reference once; the CPU time of the process in it, in seconds."""
    t0 = time.process_time()
    s = 0
    for k in range(1800):
        s += _step(k)
    for _ in range(12):
        np.linalg.svd(_A, compute_uv=False)
        np.linalg.solve(_B, _b)
    return time.process_time() - t0


def scales(ref_times) -> np.ndarray:
    """For each sample, NOMINAL_S over the median of the nearby reference times."""
    r = np.asarray(ref_times, dtype=float)
    return np.array([NOMINAL_S / np.median(r[max(0, i - WINDOW):i + WINDOW + 1])
                     for i in range(len(r))])
