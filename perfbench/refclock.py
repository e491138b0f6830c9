"""The reference-speed clock.

The speed of this kind of shared machine drifts by up to 1.7x, in phases
from a fraction of a second to several seconds, so raw wall time does not
repeat from run to run.  While jobs are timed, an interval timer
interrupts the process every ``TICK_S`` seconds and takes one ``tick()``:
the time of a small fixed kernel that belongs to the benchmark.  A job's
time in reference seconds is its wall time, less the time spent in those
interruptions, multiplied by ``NOMINAL_KERNEL_S / kernel time``; the
kernel time is the median of the ticks that fell inside the job, or of
the ``MIN_TICKS`` ticks nearest to it when the job is shorter than that.
Set-up is scaled by the median of ticks taken around it (setup_probe.py).

A tick runs the kernel once untimed and then times a second run, with the
garbage collector off.  So it measures the machine, not what the
interrupted work left behind: timed cold, right after a job's code, the
kernel took 7-16% longer, and a collection set off by its allocations
would scan the job's own objects (README.md).

A reference second is the time that ``1 / NOMINAL_KERNEL_S`` kernel runs
take: a wall second on a machine whose tick takes ``NOMINAL_KERNEL_S``.
In the runs in README.md the run-median tick was 0.20-0.35 ms, so their
reference times read 1.05-1.8x their wall times.

The kernel mixes the kinds of work commrep does in Python, since a slow
phase does not slow them all alike: componentwise comparison of small
integer tuples through generators, building and hashing tuples into a
set, allocating small objects, and dictionary updates.  A mix tracked
every workload better than any one part did, numpy calls included.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

NOMINAL_KERNEL_S = 0.00037
TICK_S = 0.008
MIN_TICKS = 5

_POINTS = [((i * 7) % 11, (i * 5) % 13, (i * 3) % 7) for i in range(40)]


def kernel():
    n = 0
    for p in _POINTS[:9]:
        for q in _POINTS[:9]:
            if all(a <= b for a, b in zip(p, q)):
                n += 1
    seen = {tuple(max(a, b) for a, b in zip(p, q)) for p in _POINTS for q in _POINTS[:2]}
    junk = [(i, i + 1, [i] * 3) for i in range(150)]
    counts = {}
    for i in range(200):
        key = (i & 31, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return n + len(seen) + len(junk) + len(counts)


def tick():
    """One kernel time in seconds, warm and with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel ticks on an interval timer, and the jobs timed against them."""

    def __init__(self):
        self.tick_at = []  # end time of each tick
        self.tick_s = []  # kernel time of each tick
        self.stolen = 0.0  # total time spent in ticks
        self.jobs = []  # (start, end) of each job
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.tick_s.append(tick())
        t1 = time.perf_counter()
        self.tick_at.append(t1)
        self.stolen += t1 - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run fn(); returns its result and its wall time less the ticks in it."""
        stolen = self.stolen
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.jobs.append((t0, t1))
        return result, (t1 - t0) - (self.stolen - stolen)

    def factors(self):
        """Scale factor of each job, from the ticks in or nearest to it."""
        out = []
        n = len(self.tick_at)
        for t0, t1 in self.jobs:
            lo, hi = bisect.bisect_left(self.tick_at, t0), bisect.bisect_right(self.tick_at, t1)
            while hi - lo < MIN_TICKS and (lo > 0 or hi < n):
                mid = (t0 + t1) / 2
                if hi >= n or (lo > 0 and mid - self.tick_at[lo - 1] <= self.tick_at[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
            out.append(NOMINAL_KERNEL_S / statistics.median(self.tick_s[lo:hi]))
        return out

    def medians_by(self, keys):
        """Median tick per key, from the ticks inside the jobs of each key;
        ``keys`` holds one key per timed job."""
        inside = {}
        for key, (t0, t1) in zip(keys, self.jobs):
            lo, hi = bisect.bisect_left(self.tick_at, t0), bisect.bisect_right(self.tick_at, t1)
            inside.setdefault(key, []).extend(self.tick_s[lo:hi])
        return {key: statistics.median(v) for key, v in inside.items() if v}
