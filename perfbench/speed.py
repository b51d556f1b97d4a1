"""Host speed, sampled while a run measures, so times read the same on a
host whose speed drifts.

On a shared machine the same Python code runs up to 1.7x slower for
seconds at a time (a busy hyperthread sibling, neighbours on the cache),
and a ten-second run can sit in a slow stretch from end to end: raw op
times then spread 20-35% from run to run.  The slowdown hits all
interpreted code alike, so a fixed pure-Python loop, timed every
:data:`PERIOD_S` on a background thread, measures it.  Every duration
the benchmark reports is converted to *reference seconds*: the time it
would take on a host that runs that loop in :data:`REFERENCE_S`.

The loop's time is taken with the thread's CPU clock, so waiting for the
interpreter lock or for the processor does not count as slowness, and
it allocates no object the garbage collector tracks, so the program's
heap size does not leak into it.  The program under test cannot change
the loop: a faster or slower program moves the reference seconds, a
faster or slower host does not.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List, Tuple

#: Calibration time of the reference host (about this machine's speed
#: when nothing contends with it).
REFERENCE_S = 300e-6
ROUNDS = 3000
PERIOD_S = 0.05
#: A duration's speed is the median over samples taken within this much
#: of its ends, so even a short op sees several samples.
PAD_S = 0.15

_TABLE = [(i * 7919) % 1009 for i in range(1024)]


def calibration_s() -> float:
    """Thread CPU time of one pass of the fixed calibration loop."""
    table = _TABLE
    acc = 0
    start = time.thread_time()
    for i in range(ROUNDS):
        acc = (acc + table[i & 1023] * 3) ^ (i >> 2)
        if acc > 1 << 30:
            acc &= 0xFFFF
    return time.thread_time() - start


class HostSpeed:
    """Samples host speed on a daemon thread from :meth:`start` to
    :meth:`stop`; :meth:`seconds` converts a ``perf_counter`` interval to
    reference seconds."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._factors: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="bench-host-speed", daemon=True)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            spent = calibration_s()
            self.record(time.perf_counter(), spent)

    def record(self, at: float, spent: float) -> None:
        """One calibration that took ``spent`` seconds, ending at ``at``.
        The thread clock can read the same before and after a loop on a
        virtual machine; such a sample says nothing and is dropped."""
        if spent > 0:
            with self._lock:
                self._times.append(at)
                self._factors.append(REFERENCE_S / spent)

    def _snapshot(self) -> Tuple[List[float], List[float]]:
        with self._lock:
            return list(self._times), list(self._factors)

    def factor(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` relative to the reference
        (above 1: faster).  1.0 when nothing was sampled."""
        times, factors = self._snapshot()
        if not times:
            return 1.0
        low = bisect.bisect_left(times, start - PAD_S)
        high = bisect.bisect_right(times, end + PAD_S)
        if low == high:                       # no sample nearby: nearest
            nearest = min(max(low, 0), len(times) - 1)
            return factors[nearest]
        return statistics.median(factors[low:high])

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds."""
        return (end - start) * self.factor(start, end)

    def overall(self) -> float:
        """Median host speed over the whole sampling."""
        _, factors = self._snapshot()
        return statistics.median(factors) if factors else 1.0
