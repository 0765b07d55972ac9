"""Per-op latency that counts an undecided op as slower than any decided one.

An op is undecided when it returned a bracket, an `inconclusive` verdict or
an `outdegree-only` verdict, or when it raised `CapacityError` or
`SearchTimeout` (any other raise is a wrong answer). Such an op is charged
UNDECIDED_PENALTY_MS on top of its own time. No op may take longer than a
benchmark run may last, so every undecided op ranks above every decided one,
and a change that decides one more op can only lower each percentile.
Percentiles are nearest-rank: the reported value is one of the samples.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

# A whole benchmark run must end within 180 s, so no decided op takes longer.
UNDECIDED_PENALTY_MS = 180_000.0

# The tail percentile is the highest one with at least this many ops beyond
# it, and is reported only when it is at least TAIL_MIN_PERCENTILE.
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0


def charged_ms(seconds: float, decided: bool) -> float:
    """An op's latency in ms, with the penalty when it was undecided."""
    ms = seconds * 1000.0
    return ms if decided else ms + UNDECIDED_PENALTY_MS


def nearest_rank(sorted_ms: Sequence[float], rank: int) -> float:
    """The `rank`-th smallest value, counting from 1."""
    return sorted_ms[rank - 1]


def p50(ms: Sequence[float]) -> float:
    ordered = sorted(ms)
    return nearest_rank(ordered, max(1, math.ceil(0.5 * len(ordered))))


def tail(ms: Sequence[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when there are too few ops for it to reach
    TAIL_MIN_PERCENTILE."""
    n = len(ms)
    rank = n - TAIL_BEYOND
    if rank < 1 or 100.0 * rank / n < TAIL_MIN_PERCENTILE:
        return None
    return 100.0 * rank / n, nearest_rank(sorted(ms), rank)
