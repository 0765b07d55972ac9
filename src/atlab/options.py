"""Solver budgets.

`at_exact` takes a SolverOptions, whose one live field is its time budget,
set by `--time-budget`; no environment variable is read. The diff engines,
chi and the level search's work count need none: their caps are the module
constants `eulerian.ENUM_CAP`, `eulerian.POLY_BUDGET`, `eulerian.MAX_WORK`
and `atsolver.CHROMATIC_BLOCK_CAP`, each read by its own engine alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverOptions:
    # Ignored: the level search counts its own work (eulerian.MAX_WORK). The
    # field stays only because the benchmark harness passes it; drop it when
    # that call does.
    search_edge_cap: int = 20
    # Ignored: every solver runs in one process. The field stays only because
    # the benchmark harness passes threads=1; drop it when that call does.
    threads: int = 1
    # Wall-clock budget in seconds for a single at_exact call, covering its
    # chromatic-number search and its level search (None = unlimited; 0
    # leaves no time, so any search past the bounds ends in a bracket).
    time_budget: float | None = None

    def __post_init__(self) -> None:
        # seconds as an int or float, not a bool; `not >= 0` also catches NaN,
        # which compares false with every deadline
        budget = self.time_budget
        real = isinstance(budget, (int, float)) and not isinstance(budget, bool)
        if budget is not None and not (real and budget >= 0):
            raise ValueError(f"time_budget must be None or a number >= 0, got {budget!r}")


DEFAULT_OPTIONS = SolverOptions()
