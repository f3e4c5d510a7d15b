"""A fixed reference kernel whose time tracks the speed of the machine.

The shared hosts this benchmark runs on change speed by up to about 2x for
seconds to minutes at a time, as other tenants load the same cores.  run.py
times this kernel right before and right after every job and reports
`wall_kernels`: each job's seconds divided by the kernel's seconds around
it, summed over the job list.  Each set-up probe takes a reading too, and
`setup_s` scales its seconds to the speed at which a reading takes
REFERENCE_S.  A phase of the machine slows the program and the kernel alike
and cancels out; a change to the program does not, because the kernel
calls no program code.

The kernel mixes the two kinds of work the workloads do: float arithmetic
in the interpreter (the RK4, BVP and ledger loops) and numpy passes over
large arrays (the Monte Carlo paths).  It must not change: its time is the
unit of `wall_kernels` and of the reference speed of `setup_s`.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3  # kernel runs per reading; a reading is their median
# The reading that defines the reference speed for setup_s: about what a
# 2-vCPU Xeon VM (2.1 GHz, Python 3.11) reads in its fast phases.
REFERENCE_S = 0.005


class Kernel:
    def __init__(self):
        # Imported here, not at module level, so numpy loads only after
        # run.py has pinned the thread counts.
        import numpy as np

        self._np = np
        self._big = np.linspace(0.0, 1.0, 500_000)
        self._work()  # the first run pays for page faults and cold caches

    def _work(self) -> float:
        s = 0.0
        for i in range(40_000):
            s += (i * 0.5) ** 0.5
        return s + float(self._np.exp(-0.5 * self._big).sum())

    def seconds(self) -> float:
        """One reading: the median time of REPEATS kernel runs (about 15 ms)."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
