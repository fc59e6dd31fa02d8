"""Machine-speed probe used to express measured times in reference-machine seconds.

On a shared host the speed of a CPU swings by up to 1.5x, over periods from
a fraction of a second to tens of seconds, and every raw timing moves with
it.  `SpeedProbe` pins the process to one CPU and, from a background thread,
times a fixed computation of the same kind as the workloads (a Python loop
of small NumPy calls) every `INTERVAL_S`.  A sample's time over
`REFERENCE_S`, the computation's time on the reference machine, is the CPU's
slowdown at that moment.  A time measured over an interval, divided by the
mean slowdown of the samples taken in and around it, is that time in
reference-machine seconds.  Nothing in robustkf runs inside the probe, so no
change to the package can move it.  Both threads share one CPU, so a sample
that falls inside an operation delays it by the sample's length; `busy`
gives that time, which the caller takes off the operation's wall time.
"""

from __future__ import annotations

import bisect
import os
import threading
from time import perf_counter

import numpy as np

#: Time of one `reference_work` call on the reference machine (see README.md).
REFERENCE_S = 0.0008
#: Pause between two probe samples.
INTERVAL_S = 0.02
#: Samples this close to an interval also count for it, so that a short
#: operation is judged by the ten or so samples around it.
PAD_S = 0.1

_A = np.linspace(0.1, 1.0, 9).reshape(3, 3)


def reference_work() -> float:
    acc = 0.0
    for i in range(200):
        b = _A @ _A.T + i
        acc += float(np.sqrt(b[0, 0]))
    return acc


class SpeedProbe:
    """Background sampler of this CPU's slowdown; use as a context manager."""

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._slowdowns: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        # Pin before starting the thread: it, and every child process, inherit
        # the CPU, so the probe measures the CPU the timed work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = perf_counter()
            reference_work()
            end = perf_counter()
            self._starts.append(start)
            self._ends.append(end)
            self._slowdowns.append((end - start) / REFERENCE_S)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples that ended within `PAD_S` of [start, end].

        Without such a sample, the latest sample before ``end`` counts, or
        a sample taken now if there is none yet.
        """
        n = len(self._slowdowns)
        lo = bisect.bisect_left(self._ends, start - PAD_S, 0, n)
        hi = bisect.bisect_right(self._ends, end + PAD_S, 0, n)
        if hi > lo:
            return sum(self._slowdowns[lo:hi]) / (hi - lo)
        if hi > 0:
            return self._slowdowns[hi - 1]
        t0 = perf_counter()
        reference_work()
        return (perf_counter() - t0) / REFERENCE_S

    def busy(self, start: float, end: float) -> float:
        """Time within [start, end] that the probe spent taking samples."""
        n = len(self._slowdowns)
        total = 0.0
        i = bisect.bisect_right(self._ends, start, 0, n)
        while i < n and self._starts[i] < end:
            total += min(end, self._ends[i]) - max(start, self._starts[i])
            i += 1
        return total
