"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a VM that shares its cores, caches and memory
bandwidth with other tenants.  Their load moves every timing by up to 1.5x,
for minutes at a time, so a whole process can run in a slow or a fast
state.  This kernel is the benchmark's own code, which a change to the
program under test never touches.  Timing it before and after each run and
scaling the run's CPU seconds by ``REFERENCE_S / kernel seconds`` takes the
host's state out of the metrics and leaves the program's own cost.

The kernel mixes the two kinds of work the workloads do: numpy sorts and
gathers over an 8 MB array (the array engine's phase kernels at n=512) and
an interpreter loop of small-array numpy calls (the per-step work of the
streaming driver, its oracles and the reference engine).
"""

from __future__ import annotations

from time import process_time

import numpy as np

#: CPU seconds of :func:`kernel` on the host the bounds were set on (a
#: 2-vCPU Intel Xeon VM shared with other tenants), close to its median
#: there.  Scaled times are in seconds of that host.
REFERENCE_S = 0.75


def kernel() -> int:
    """A fixed amount of numpy and interpreter work; returns a checksum.

    Everything it allocates is freed when it returns, so it adds nothing to
    the run's peak memory.
    """
    values = np.random.default_rng(12345).permutation(1 << 20)
    total = 0
    for _ in range(2):
        order = np.argsort(values, kind="stable")
        total += int(values[order[::4096]].sum())
    small = np.arange(256, dtype=np.int64)
    for i in range(30_000):
        total += int(small[(small + i) % 7 == 0].sum())
        total += int(np.count_nonzero(small > (i & 255)))
    return total


def calibration_s() -> float:
    """CPU seconds of one :func:`kernel` call."""
    t0 = process_time()
    kernel()
    return process_time() - t0
