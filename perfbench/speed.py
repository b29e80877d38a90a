"""How fast the host runs, sampled while the program runs.

The shared hosts this benchmark runs on change speed by more than half
within tens of seconds, for every process alike: the same sweep of five
dimensions took 1.1 s per dimension in one minute and 1.9 s in the next,
in CPU time as well as in wall time.  A run of fixed length cannot average
that away.  So the worker times a fixed piece of work, the kernel, every
PERIOD_S seconds from a timer signal, in the same thread as the program,
and `scaled` turns a measured time into seconds at the reference speed:
the speed at which the kernel takes REFERENCE_S of CPU.

The kernel is pure Python, so it needs no import and can be sampled from
the first moment of set-up.  It never calls the program: a change to the
program moves a scaled time as much as it moves the raw one.  It costs
about 2 % of the measured time, the same share on every commit.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.004   # kernel CPU time at the reference speed
PERIOD_S = 0.2        # between two samples


def kernel() -> float:
    """Run the kernel once; the CPU time of this thread it took."""
    t0 = time.thread_time()
    acc = 0
    for i in range(40000):
        acc += (i * i) % 7 - (i & 3)
    return time.thread_time() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Kernel times, each with the monotonic clock it ended at.

    Runs the kernel from SIGALRM every PERIOD_S seconds, in the main
    thread, between `start` and `stop`; `sample` runs it once on demand.
    """

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        kernel_s = kernel()
        self.samples.append((time.monotonic(), kernel_s))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mean(self, since: float, until: float) -> float:
        """Mean kernel time of the samples that ended in [since, until]."""
        times = [k for t, k in self.samples if since <= t <= until]
        return sum(times) / len(times)
