"""Program times corrected for the drifting speed of a shared host.

Other tenants slow a shared host by up to 1.6x, for seconds to tens of
seconds at a time: on a shared 2-vCPU Intel Xeon VM, one fixed
`density-map` command repeated for 150 s took between 0.28 and 0.47 s per
call, with CPU time equal to wall time.  So a fixed numpy kernel of about
1.3 ms samples the host's speed while the program runs: PROBE_RUNS times
after every command, and every TICK_S during a command, from a SIGALRM
handler.  A command's time is its wall time minus the samples taken
during it, divided by the median sample time over the command and the
probes on either side, times ``NOMINAL_S``, the kernel's median time on
that host.  Slow spells then cancel, and times read as seconds at the
nominal speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.0013
TICK_S = 0.1
PROBE_RUNS = 5


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        # small arrays weigh interpreter and dispatch speed, larger ones
        # arithmetic and cache speed; the program does both
        self._work = [(rng.standard_normal((512, 4)),
                       rng.standard_normal((512, 4)), 6),
                      (rng.standard_normal((4096, 4)),
                       rng.standard_normal((4096, 4)), 1)]
        self.kernel_s = []
        self._ticks = []
        self._tick_s = 0.0
        self._last = self._probe()

    @staticmethod
    def _step(x, y):
        a = np.sin(x) * y + np.cos(y)
        a /= np.sqrt(np.sum(a * a, axis=-1))[:, None]

    def _kernel(self) -> float:
        started = time.perf_counter()
        for x, y, repeats in self._work:
            for _ in range(repeats):
                self._step(x, y)
        elapsed = time.perf_counter() - started
        self.kernel_s.append(elapsed)
        return elapsed

    def _probe(self) -> float:
        """Median of PROBE_RUNS kernels, after one untimed step that refills
        the caches the command evicted."""
        for x, y, _ in self._work:
            self._step(x, y)
        return statistics.median(self._kernel() for _ in range(PROBE_RUNS))

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self._ticks.append(self._kernel())
        self._tick_s += time.perf_counter() - started

    def run(self, fn, *args):
        """Call ``fn(*args)``; return its result, its wall time and its time
        at the nominal host speed, both without the samples taken."""
        self._ticks, self._tick_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        started = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._tick_s
        before, self._last = self._last, self._probe()
        host = statistics.median([before, self._last] + self._ticks)
        return result, wall, wall * NOMINAL_S / host
