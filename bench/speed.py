"""Times in reference seconds: measured times with drift in machine speed
taken out.

The machine the benchmark was defined on changes speed by up to 1.7x, in
stretches of seconds to minutes, most likely because others share its CPUs
(`bench/NOTES.md`). Charging the process only for its own CPU time does not
help: the process runs slower, it is not descheduled. So the harness times a
fixed pure-Python loop, `reference_loop`, between ops (at most every
REF_EVERY_S seconds), and scales each measured time by REF_S over the loop's
time around it.
A time in reference seconds is what the time would have been had the loop
taken REF_S, its typical time on that machine. The loop does not use atlab,
so a change to atlab moves only the measured side of the ratio.

Changing the loop or REF_S changes every reported time: compare no numbers
across such a change.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable

REF_S = 0.012  # typical time of reference_loop on 2 CPUs, CPython 3.11.7
REF_EVERY_S = 0.5  # at most this long between two samples, ops permitting


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mix(self, k: int) -> int:
        return (self.a * k + self.b) & 255


def reference_loop() -> int:
    """Fixed interpreter work of the kinds atlab does: Fraction arithmetic,
    as in exact density, then objects, method calls, sets and a sort of
    tuples, as in graph building and search."""
    x = Fraction(0)
    for i in range(1, 1500):
        x += Fraction(i % 13, i % 17 + 1)
        if x > 100:
            x -= 100
    cells = [_Cell(i, 7 * i) for i in range(2000)]
    seen: set[int] = set()
    pairs = []
    for _ in range(5):
        for cell in cells:
            v = cell.mix(3)
            seen.add(v)
            pairs.append((v, cell.a))
    pairs.sort()
    return len(pairs) + len(seen) + int(x)


class SpeedRef:
    """Samples of reference_loop's time, and the scale they give an interval."""

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 loop: Callable[[], object] = reference_loop):
        self.clock = clock
        self.loop = loop
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Time the loop once; returns the time the sample took."""
        t0 = self.clock()
        self.loop()
        t1 = self.clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)
        return t1 - t0

    def due(self) -> bool:
        return not self.ends or self.clock() - self.ends[-1] >= REF_EVERY_S

    def maybe_sample(self) -> float:
        """A sample if one is due; returns the time spent sampling."""
        return self.sample() if self.due() else 0.0

    def scale(self, start: float, end: float) -> float:
        """REF_S over the loop's median time from the second-last sample
        before `start` to the second sample after `end`."""
        if not self.seconds:
            raise RuntimeError("no reference samples")
        lo = max(0, bisect.bisect_right(self.ends, start) - 2)
        hi = bisect.bisect_left(self.starts, end) + 2
        return REF_S / statistics.median(self.seconds[lo:hi])

    def ref_seconds(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured over [start, end], in reference seconds."""
        return seconds * self.scale(start, end)
