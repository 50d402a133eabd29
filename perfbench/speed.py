"""Host-speed probe: a fixed reference computation sampled during a run.

Other tenants of a shared host change how fast the same Python code runs, by
a factor of up to two over seconds to minutes.  The probe measures that speed
while the workload runs.  A wall-clock interval timer interrupts the
benchmark every ``INTERVAL_S``; the signal handler runs ``reference()`` once
and records how long it took.  Samples are evenly spaced in wall time, so the
mean of ``NOMINAL_S / sample`` over a window is the host's mean speed in that
window, relative to a host on which ``reference()`` takes ``NOMINAL_S``.

``reference()`` is exact Gauss-Jordan elimination over ``Fraction`` written
here, so it stresses the same interpreter paths as the package's exact core
but shares no code with it: a change to the package cannot move the probe.

The time spent in the handler is not the workload's.  ``elapsed()`` and
``cpu()`` are ``perf_counter`` and ``process_time`` minus the handler's own
time, and every duration the benchmark reports is taken from them.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
# median reference() time on the 2-vCPU Intel Xeon guest the benchmark was
# tuned on, CPython 3.11; a fixed constant, so normalised times equal wall
# times on a host of that speed
NOMINAL_S = 0.0012
MIN_SAMPLES = 40  # fewest samples a window's speed is taken from

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(7)]
           for i in range(6)]


def reference() -> Fraction:
    """Reduce a fixed 6 x 7 rational matrix; return the last pivot's row sum."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(7):
        p = next((i for i in range(r, 6) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(6):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return sum(m[r - 1])


class SpeedProbe:
    """Samples ``reference()`` on a wall-clock timer while started."""

    def __init__(self):
        self.at = []       # perf_counter at each sample
        self.speed = []    # NOMINAL_S / sample duration
        self._wall = 0.0   # total time spent in the handler
        self._cpu = 0.0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        reference()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.speed.append(NOMINAL_S / (t1 - t0))
        self._cpu += time.process_time() - c0
        self._wall += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def elapsed(self) -> float:
        """Wall clock without the probe's own time."""
        return time.perf_counter() - self._wall

    def cpu(self) -> float:
        """Process CPU time without the probe's own time."""
        return time.process_time() - self._cpu

    def mean_speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean relative host speed over samples taken in [start, end] of perf_counter.

        A window holding fewer than ``MIN_SAMPLES`` samples is widened to the
        ``MIN_SAMPLES`` samples nearest to it, so a short operation takes the
        speed of the second around it.
        """
        n = len(self.at)
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min(lo - (MIN_SAMPLES - (hi - lo)) // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        window = self.speed[lo:hi]
        return sum(window) / len(window)

