"""Machine-speed samples taken while the jobs run.

On a shared host the CPU's speed drifts by up to about 2x over seconds
to minutes, as other tenants come and go. A job's time is therefore
also expressed in units of a tiny fixed pure-Python kernel, timed from a
SIGALRM handler every INTERVAL_S while the job itself runs, so that both
see the same machine. The handler's own time is taken out of the job's
time. No thread or process is started.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

INTERVAL_S = 0.05
MIN_SAMPLES = 5  # samples behind each reference value


def kernel() -> float:
    """Seconds for a fixed bit of work shaped like the package's inner loops:
    tuple-keyed dict traffic, small sorts, modular and Fraction arithmetic."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(600):
        key = (i, i * 7 % 101, i % 31)
        a, b, c = key
        table[key] = (a * b + c) % 1_000_003
        acc += len(tuple(sorted((c, b, a)))) + table.get((b, a, c), 0)
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(acc % 7 + 1, i)
    return time.perf_counter() - t0


class Sampler:
    """Context manager that times ``kernel`` every INTERVAL_S of wall time.

    ``samples`` holds (start, end, kernel seconds) per alarm. The handler
    runs between bytecodes of the interrupted code, so each sample lies
    wholly inside or wholly outside any interval the main code timed.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # warm up, so the timed run does not depend on what the job left in cache
        seconds = kernel()
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time_within(self, t0: float, t1: float) -> float:
        """Seconds the handler spent inside [t0, t1]."""
        return sum(s1 - s0 for s0, s1, _k in self.samples if t0 <= s0 and s1 <= t1)


def references(intervals: Sequence[Tuple[float, float]], samples: Sequence[Tuple[float, float, float]]) -> List[float]:
    """A reference kernel time for each of the consecutive intervals.

    Intervals are grouped in order until a group holds MIN_SAMPLES
    samples, a short last group joining the one before it; every
    interval in a group gets the mean kernel time of the group's samples.
    """
    groups: List[Tuple[int, List[float]]] = []  # (intervals in group, kernel times)
    for t0, t1 in intervals:
        if not groups or len(groups[-1][1]) >= MIN_SAMPLES:
            groups.append((0, []))
        size, found = groups[-1]
        groups[-1] = (size + 1, found + [k for s0, s1, k in samples if t0 <= s0 and s1 <= t1])
    if len(groups) > 1 and len(groups[-1][1]) < MIN_SAMPLES:
        size, found = groups.pop()
        groups[-1] = (groups[-1][0] + size, groups[-1][1] + found)
    if any(not found for _size, found in groups):
        raise ValueError("no speed samples fell inside the timed intervals")
    return [statistics.mean(found) for size, found in groups for _ in range(size)]
