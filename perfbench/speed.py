"""Machine-speed sampler: scales a wall time to a fixed reference speed.

The benchmark's reference machine (a 2-vCPU virtual machine on a shared
host) changes speed by 1.4-3x over tens of seconds to minutes, for all
code alike: a pure-Python loop and a NumPy kernel slow down by the same
factor at the same time.  A wall time alone therefore says more about
the host's load than about the program.

While a timed call runs, `SpeedSampler` times a small fixed pure-Python
kernel from a SIGALRM handler every 20-60 ms (at random, so the samples
do not lock onto a period of the host's scheduler).  The handler runs in
the timed thread, so it measures the vCPU that thread runs on.  The mean
kernel time over the call is the machine's slowness during that call, and

    reference time = (wall time - time spent in the sampler)
                     * REFERENCE_S / mean kernel time

is the call's wall time at the speed where the kernel takes REFERENCE_S.
The sampler costs about 2 % of the wall time, which it subtracts.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

KERNEL_STEPS = 20_000   # loop steps of one kernel sample (about 1 ms)
REFERENCE_S = 1e-3      # kernel time of the reference speed
INTERVAL_S = (0.02, 0.06)


def _kernel() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(KERNEL_STEPS):
        x += i
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the kernel time while started; `stop()` returns
    (mean kernel time, total time spent sampling)."""

    def __init__(self, seed: int = 0):
        self.samples = []
        self._rng = random.Random(seed)
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(_kernel())
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))

    def start(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))
        return self

    def stop(self) -> tuple:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        sampling_s = sum(self.samples)
        if not self.samples:  # a call shorter than the first interval
            self.samples.append(_kernel())
        return statistics.mean(self.samples), sampling_s


def reference_time(wall_s: float, mean_kernel_s: float, sampling_s: float) -> float:
    """Wall time at the reference speed (see the module docstring)."""
    return (wall_s - sampling_s) * REFERENCE_S / mean_kernel_s
