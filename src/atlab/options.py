"""Solver budgets and tuning knobs.

Every solver entry point that searches takes a SolverOptions; the defaults
are sized for a desk-scale machine. The chromatic number is a function of the
graph alone, so its path takes none: its one cap is the constant
`atsolver.CHROMATIC_BLOCK_CAP`. The CLI starts from the defaults and applies
its flags; no environment variable is read.
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
    # Ignored: every solver runs in one process. The field stays only because
    # the benchmark harness passes threads=1; drop it when that call does.
    threads: int = 1
    # Wall-clock budget in seconds for a single at_exact call, covering its
    # chromatic-number search and its level search (None = unlimited; 0
    # leaves no time, so any search past the bounds ends in a bracket).
    time_budget: float | None = None

    def __post_init__(self) -> None:
        # a negative cap would silently switch its engine off; 0 is a cap
        for name in ("enum_cap", "poly_budget", "search_edge_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # `not >= 0` also catches NaN, which compares false with every deadline
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be None or >= 0, got {self.time_budget}")

    def with_(self, **kw) -> "SolverOptions":
        return replace(self, **kw)


DEFAULT_OPTIONS = SolverOptions()
