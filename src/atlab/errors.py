"""Exception types shared across the solvers."""


class CapacityError(RuntimeError):
    """An operation exceeded its configured budget (arc cap, monomial budget, ...)."""


class SizeCapError(ValueError):
    """A graph construction exceeded the configured size cap."""


class SearchTimeout(Exception):
    """The wall-clock deadline of a search ran out."""


class ProofObligationError(RuntimeError):
    """A solver result contradicts a theorem the solver relies on.

    Raised explicitly, never through `assert`, so `python -O` keeps the check.
    """
