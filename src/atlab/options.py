"""Solver budgets and tuning knobs.

Every solver entry point takes a SolverOptions; the defaults are sized for a
desk-scale machine. Environment variables AT_LAB_THREADS, AT_LAB_ENUM_CAP and
AT_LAB_TIME_BUDGET seed the defaults when `SolverOptions.from_env` is used
(command-line flags override them in the CLI). `threads` (and so
AT_LAB_THREADS) is accepted and ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SolverOptions:
    # Max arc count for the exact even/odd Eulerian tally (meet-in-the-middle,
    # costs ~2^(arcs/2) dictionary operations).
    enum_cap: int = 24
    # Gate for eulerian_diff_poly: product of (outdegree+1) over all vertices
    # must not exceed this many monomials.
    poly_budget: int = 2_000_000
    # Max edge count for the level search.
    search_edge_cap: int = 20
    # Max biconnected-block size the exact chromatic solver will attempt.
    chromatic_block_cap: int = 64
    # Accepted and ignored: the level search runs in one process. Kept while
    # callers (the benchmark among them) still pass threads=1.
    threads: int = 1
    # Wall-clock budget in seconds for a single at_exact call (None = unlimited).
    time_budget: float | None = None

    def with_(self, **kw) -> "SolverOptions":
        return replace(self, **kw)

    @classmethod
    def from_env(cls, **overrides) -> "SolverOptions":
        """Defaults seeded from AT_LAB_* environment variables, then overridden."""
        kw = {}
        if "AT_LAB_THREADS" in os.environ:
            kw["threads"] = int(os.environ["AT_LAB_THREADS"])
        if "AT_LAB_ENUM_CAP" in os.environ:
            kw["enum_cap"] = int(os.environ["AT_LAB_ENUM_CAP"])
        if "AT_LAB_TIME_BUDGET" in os.environ:
            kw["time_budget"] = float(os.environ["AT_LAB_TIME_BUDGET"])
        kw.update(overrides)
        return cls(**kw)


DEFAULT_OPTIONS = SolverOptions()
