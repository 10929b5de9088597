"""Machine-speed calibration of measured times.

The host this benchmark was built on runs the same pure-Python loop up to
1.6 times slower in phases that last from seconds to over a minute, so raw
wall-clock times of identical runs differ by 20-40%.  A probe times a fixed
slice of pure-Python work (``probe_kernel``) every PROBE_INTERVAL_S from a
SIGALRM handler; the handler runs between the program's bytecodes, so the
probes follow the machine's speed during a task as well as between tasks.
A task's calibrated latency is its latency without the probes' own time,
scaled by REFERENCE_S / (median probe duration within PROBE_WINDOW_S of
the task): the time the task would take on a machine where one probe takes
REFERENCE_S.  The probe is the same on every commit, so a faster program
still reads faster.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 1.0
# about the probe's time in the fast phase of the 2-CPU host the baselines come from
REFERENCE_S = 0.0003
PROBE_IMAGES = tuple((7 * p + 3) % 24 for p in range(24))


def probe_kernel():
    """A fixed slice of work in the style of the program's hot loops: set
    images under a permutation, set and dict updates."""
    current = (0, 1, 2, 3, 4, 5)
    seen = set()
    for _ in range(200):
        current = tuple(sorted(PROBE_IMAGES[p] for p in current))
        seen.add(current)
    counts = {}
    for i in range(1000):
        counts[i % 61] = counts.get(i % 61, 0) + 1
    return len(seen) + len(counts)


def probe_once():
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


def calibrated_once(measure, probes=5):
    """Run ``measure()`` (returning seconds) between two sets of probes in
    this process; return (raw, calibrated) seconds."""
    probe_once()  # the first run pays for the cold code path
    around = [probe_once() for _ in range(probes)]
    raw = measure()
    around += [probe_once() for _ in range(probes)]
    return raw, raw * REFERENCE_S / statistics.median(around)


class SpeedProbe:
    """Context manager sampling probe durations on a timer while active."""

    def __init__(self):
        self.times = []
        self.durations = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        probe_kernel()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, start, end):
        """Calibrated seconds of the interval [start, end] (perf_counter)."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        first = bisect.bisect_left(self.times, start, lo, hi)
        last = bisect.bisect_right(self.times, end, lo, hi)
        own = sum(self.durations[first:last])
        nearby = self.durations[lo:hi] or self.durations or [probe_once()]
        return (end - start - own) * REFERENCE_S / statistics.median(nearby)
