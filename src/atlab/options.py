"""Solver budgets and tuning knobs.

Every solver entry point takes a SolverOptions; the defaults are sized for a
desk-scale machine. The CLI starts from the defaults and applies its flags;
no environment variable is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SolverOptions:
    # Max arc count of the largest strongly connected component for the exact
    # even/odd Eulerian tally: meet-in-the-middle, at most 2^ceil(arcs/2) keys
    # per half of a component's arcs, fewer where a vertex's arcs all lie in
    # one half; a component that is one directed cycle costs none.
    enum_cap: int = 24
    # Gate for eulerian_diff_poly: no strongly connected component's product
    # of (outdegree+1) over its vertices may exceed this many monomials.
    poly_budget: int = 2_000_000
    # Max edge count for the level search.
    search_edge_cap: int = 20
    # Max biconnected-block size the exact chromatic solver will attempt.
    chromatic_block_cap: int = 64
    # Ignored: every solver runs in one process. The field stays only because
    # the benchmark harness passes threads=1; drop it when that call does.
    threads: int = 1
    # Wall-clock budget in seconds for a single at_exact call, covering its
    # chromatic-number search and its level search (None = unlimited; 0
    # leaves no time, so any search past the bounds ends in a bracket).
    time_budget: float | None = None

    def with_(self, **kw) -> "SolverOptions":
        return replace(self, **kw)


DEFAULT_OPTIONS = SolverOptions()
