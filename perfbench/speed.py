"""The speed of the CPUs a repetition runs on, sampled while it runs.

On a shared machine the speed each CPU of this machine gets changes by up
to 2x from one second to the next, and each CPU on its own: a 20-second run
can fall into a slow or a fast stretch, which moves raw wall times by 20%
from run to run.  So run.py pins each repetition to fixed CPUs and, while
it runs, a thread of run.py pinned to each of those CPUs times a small
fixed numpy kernel every 20 ms (about 5% of the CPU).  Times are reported
scaled to a reference speed:

    time at reference speed = measured time * REF_S / probe time

averaged over the interval in blocks of 8 samples (the median of a block
drops a sample stretched by preemption) and over the CPUs.  ``REF_S`` is
the probe time on the machine the benchmark was defined on, uncontended (a
2-CPU Intel Xeon virtual machine), so scaled figures read as seconds there.  On
that machine, for a busy process, a probe on the same CPU cut the spread of
5-second windows from 22% to 2%; a probe on the other CPU only to 17%.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

REF_S = 1.1e-3
PAUSE_S = 0.02
BLOCK = 8
_A = np.random.default_rng(0).standard_normal((64, 64))


def _kernel() -> float:
    # small numpy calls from a Python loop, like trajent's kernels
    s = 0.0
    for i in range(1000):
        s += float(_A[i % 64] @ _A[(7 * i) % 64])
    return s


class SpeedProbe:
    """Context manager sampling the probe kernel on one CPU until it exits."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})     # this thread only
        while True:
            t = time.perf_counter()
            _kernel()
            self.samples.append((t, time.perf_counter() - t))
            if self._stop.wait(PAUSE_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REF_S / probe time over [t0, t1]; at least one block."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if len(inside) < BLOCK:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:BLOCK]]
        blocks = [statistics.median(inside[i:i + BLOCK])
                  for i in range(0, len(inside), BLOCK)]
        return statistics.fmean(REF_S / b for b in blocks)


class Probes:
    """One SpeedProbe per CPU; the factor is their mean."""

    def __init__(self, cpus):
        self.probes = [SpeedProbe(c) for c in cpus]

    def __enter__(self) -> "Probes":
        for p in self.probes:
            p.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        for p in self.probes:
            p.__exit__(*exc)

    def factor(self, t0: float, t1: float) -> float:
        return statistics.fmean(p.factor(t0, t1) for p in self.probes)
