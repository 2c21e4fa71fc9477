"""Host speed, so that timings taken on a shared host can be compared.

The host this benchmark was built on is a shared 2-core VM.  Its speed drifts
by up to 1.9x, in phases lasting from under a second to half a minute.  CPU
time tracks wall time throughout, so the program is not waiting: the CPU
itself runs slower.  Medians over calls and over runs cannot remove a phase
that covers a whole run.

So every timed region runs a sampler thread.  Every INTERVAL_S it runs a
fixed pure-Python integer loop and records the loop's CPU time (thread CPU
time, so waiting for the interpreter lock does not count).  A call's time is
then scaled by CAL_REF_S over the mean loop time sampled around it.  CAL_REF_S
is the loop's time on the reference host, an Intel Xeon VM in its fast
phase, so a scaled time reads as that host's time.  The sampler costs about
1% of one core.
"""
from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter, thread_time

CAL_REF_S = 1.0e-3
INTERVAL_S = 0.1
WINDOW_S = 0.25  # a short call also uses the samples this close to its start or end
MIN_INSIDE = 3


def _loop() -> int:
    x, tab = 1, [0] * 4096
    for _ in range(5000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        tab[x & 4095] += (x & -x).bit_length()
    return tab[0]


def calibrate() -> float:
    """CPU seconds of the calibration loop, fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        c0 = thread_time()
        _loop()
        best = min(best, thread_time() - c0)
    return best


class HostSpeed:
    """Context manager: samples the calibration loop in a background thread."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.cals: list[float] = []  # CPU seconds of the loop at each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)
        self._prefix: list[float] = []

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._prefix = [0.0, *accumulate(self.cals)]
        return False

    def _run(self) -> None:
        while True:
            c0 = thread_time()
            _loop()
            self.cals.append(thread_time() - c0)
            self.times.append(perf_counter())
            if self._stop.wait(INTERVAL_S):
                return

    def scale(self, t0: float, t1: float) -> float:
        """CAL_REF_S over the mean loop time sampled during [t0, t1], or within
        WINDOW_S of it when fewer than MIN_INSIDE samples fall inside.

        Falls back to the sample nearest the interval.  Call after the block.
        """
        lo = bisect_left(self.times, t0)
        hi = bisect_right(self.times, t1)
        if hi - lo < MIN_INSIDE:
            lo = bisect_left(self.times, t0 - WINDOW_S)
            hi = bisect_right(self.times, t1 + WINDOW_S)
        if hi == lo:
            k = min(bisect_left(self.times, t0), len(self.times) - 1)
            return CAL_REF_S / self.cals[k]
        return CAL_REF_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])

    def scaled(self, t0: float, t1: float) -> float:
        """The duration t1 - t0 as the reference host would have taken it."""
        return (t1 - t0) * self.scale(t0, t1)
