"""Machine-speed probe: rescales measured times to a reference core speed.

The benchmark machine is a shared virtual machine whose cores switch,
for seconds at a time, between two speeds about 1.6x apart (a fixed
Python loop takes 21 ms or 36 ms).  Raw times of identical work then
spread by 15-45 % from run to run.  While a run measures, a 10 ms interval
timer runs a fixed reference task in the measuring thread.  An interval's
slowdown factor is the mean task time inside it divided by REFERENCE_S,
and its time at reference speed is its raw time minus the tasks' own time,
divided by the factor.

The task mixes what the program spends its time on: interpreter loops,
small-object allocation and small numpy arrays.  A pure integer loop slows
down less than the program does when the core is slow (the slope of log
block time against log loop time was 1.3 to 1.9 over repeated identical
blocks); this task tracks it with slope 0.7 to 1.2.  REFERENCE_S is the
task time on an undisturbed core of the benchmark machine.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.01
REFERENCE_S = 1.1e-4
_ARRAY = np.linspace(0.1, 0.9, 8) + 0.3j


def reference_task() -> float:
    s = 0.0
    for i in range(600):
        s += i
    table = {}
    for k in range(60):
        table[k] = complex(k, 1.0) * 0.5
    for k in range(12):
        a = _ARRAY * (1.0 + 1e-3 * k)
        s += float(np.max(np.abs(a - _ARRAY)))
    return s


class SpeedProbe:
    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> tuple[float, float]:
        """(slowdown factor, time the tasks themselves took) inside [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        durs = self.durations[lo:hi]
        busy = sum(durs)
        if not durs:  # shorter than one period: use the nearest samples
            durs = self.durations[max(0, lo - 1):lo + 1] or [REFERENCE_S]
        return sum(durs) / len(durs) / REFERENCE_S, busy

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] rescaled to the reference speed."""
        f, busy = self.factor(t0, t1)
        return (t1 - t0 - busy) / f
