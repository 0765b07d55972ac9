"""Solver budgets.

Every solver entry point that searches takes a SolverOptions; the defaults
are sized for a desk-scale machine. A diff is a function of the orientation
and chi of the graph, so neither path takes one: their caps are the module
constants `eulerian.ENUM_CAP`, `eulerian.POLY_BUDGET` and
`atsolver.CHROMATIC_BLOCK_CAP`, each read by its own engine alone. The CLI
starts from the defaults and applies its flags; no environment variable is
read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SolverOptions:
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
        # a negative cap would silently switch the search off; 0 is a cap
        if self.search_edge_cap < 0:
            raise ValueError(f"search_edge_cap must be >= 0, got {self.search_edge_cap}")
        # `not >= 0` also catches NaN, which compares false with every deadline
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be None or >= 0, got {self.time_budget}")

    def with_(self, **kw) -> "SolverOptions":
        return replace(self, **kw)


DEFAULT_OPTIONS = SolverOptions()
