"""Composite orientations for cartesian products and coronas, plus the
certificate verifier.

Product rule (factors g1, g2 with orientations d1, d2): inside every copy of
g1 the edges follow d1 (rule R1); the cross edges between copy i and copy j
follow d2's direction on the factor edge v_i v_j (rule R2). Every composite
vertex (u, v_i) then has outdegree exactly outdeg_d1(u) + outdeg_d2(v_i).

Corona rule: the hub copy of g1 follows d1 (R1), each attached copy of g2
follows d2 (R2), and every hub link points from the copy vertex to its hub
(R3). Hub i keeps outdegree outdeg_d1(i); copy vertex (i, j) gets
outdeg_d2(j) + 1. The all-copies/hub split (corona_cut_sides) is a one-way
cut, so no strongly connected component crosses it and the diff of the
composite factors exactly as diff(d1) * diff(d2)^m. eulerian.one_way_cut_check
checks the arc directions and reads both sides' diffs off the component pass.

Product orientations carry no such global one-way cut, but their strongly
connected components factor them the same way: every Eulerian subdigraph
stays inside the components, so diff is the product of the components'
diffs. With an acyclic d2, for instance, the components are the copies of
d1's. Both diff engines run per component and their budgets measure the
largest one, so the diff of a composite is computed directly whenever its
largest component is within budget, and flagged unverified otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .atsolver import ATCertificate
from .eulerian import ENGINES, Orientation, engine_diff
from .graphs import Graph, bipartition, cartesian_product, corona
from .options import DEFAULT_OPTIONS, SolverOptions


@dataclass(frozen=True)
class ConstructionRecipe:
    """Which rule oriented each composite edge, and from which factor edge.

    edge_rules is aligned with the composite graph's edge order; each entry is
    (rule, factor_edge_index) with factor_edge_index indexing d1's edges for
    R1, d2's edges for R2, and None for corona hub links (R3).
    """

    kind: str
    d1: Orientation
    d2: Orientation
    edge_rules: tuple[tuple[str, Optional[int]], ...]


def product_orientation(
    g1: Graph, d1: Orientation, g2: Graph, d2: Orientation
) -> tuple[Orientation, ConstructionRecipe]:
    """Orientation of g1 [] g2 from factor orientations (rules R1/R2)."""
    if d1.graph != g1 or d2.graph != g2:
        raise ValueError("orientations do not match the given factor graphs")
    composite = cartesian_product(g1, g2)
    tails: list[int] = []
    rules: list[tuple[str, Optional[int]]] = []
    for i in range(g2.n):
        base = i * g1.n
        for k, t in enumerate(d1.tails):
            tails.append(base + t)
            rules.append(("R1", k))
    for k, t in enumerate(d2.tails):
        for a in range(g1.n):
            tails.append(t * g1.n + a)
            rules.append(("R2", k))
    oriented = Orientation(composite, tails)
    return oriented, ConstructionRecipe("product", d1, d2, tuple(rules))


def corona_orientation(
    g1: Graph, d1: Orientation, g2: Graph, d2: Orientation
) -> tuple[Orientation, ConstructionRecipe]:
    """Orientation of g1 o g2 from factor orientations (rules R1/R2/R3)."""
    if d1.graph != g1 or d2.graph != g2:
        raise ValueError("orientations do not match the given factor graphs")
    composite = corona(g1, g2)
    m = g1.n
    tails: list[int] = []
    rules: list[tuple[str, Optional[int]]] = []
    for k, t in enumerate(d1.tails):
        tails.append(t)
        rules.append(("R1", k))
    for i in range(m):
        base = m + i * g2.n
        for k, t in enumerate(d2.tails):
            tails.append(base + t)
            rules.append(("R2", k))
        for j in range(g2.n):
            tails.append(base + j)
            rules.append(("R3", None))
    oriented = Orientation(composite, tails)
    return oriented, ConstructionRecipe("corona", d1, d2, tuple(rules))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-checking a claimed certificate."""

    verdict: str  # "accepted" | "rejected" | "outdegree-only"
    level: int
    max_outdegree: int
    outdegree_ok: bool
    diff_method: Optional[str]
    diff_magnitude: Optional[int]
    messages: tuple[str, ...]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def verify_certificate(
    cert: Union[ATCertificate, Orientation],
    level: Optional[int] = None,
    options: SolverOptions = DEFAULT_OPTIONS,
) -> VerifyReport:
    """Re-check a claimed AT certificate: outdegree bound, then diff != 0 via
    an engine other than the recorded one when both fit the budget (both
    budgets measure the largest strongly connected component). Over-budget
    diff checks downgrade to an "outdegree-only" verdict (or accept outright
    via the bipartite closed form). The corona product law is not re-checked
    here: certificates do not carry their factor orientations, so callers
    run eulerian.one_way_cut_check over corona_cut_sides afterwards, as
    `atlab verify` does."""
    if isinstance(cert, ATCertificate):
        orientation = cert.orientation
        recorded = cert.method
        if level is None:
            level = cert.level
    else:
        orientation = cert
        recorded = None
        if level is None:
            raise ValueError("a bare orientation needs an explicit claimed level")
    messages: list[str] = []
    maxout = orientation.max_outdegree()
    outdegree_ok = maxout <= level - 1
    if not outdegree_ok:
        messages.append(f"outdegree violation: max outdegree {maxout} > {level - 1}")
        return VerifyReport("rejected", level, maxout, False, None, None, tuple(messages))

    # the recorded engine goes last, so another one re-checks when it fits
    engines = sorted(ENGINES, key=lambda e: e == recorded)
    method, diff = engine_diff(orientation, options, engines)
    if method is None:
        if bipartition(orientation.graph) is not None:
            messages.append("diff engines over budget; accepted by bipartite closed form")
            return VerifyReport(
                "accepted", level, maxout, True, "bipartite-closed-form", None, tuple(messages)
            )
        messages.append("diff engines over budget; only the outdegree bound was checked")
        return VerifyReport("outdegree-only", level, maxout, True, None, None, tuple(messages))
    if diff == 0:
        messages.append(f"diff is zero ({method})")
        return VerifyReport("rejected", level, maxout, True, method, 0, tuple(messages))
    if isinstance(cert, ATCertificate) and cert.diff_magnitude is not None:
        # both engines agree on |diff|, so any recorded magnitude must match
        if abs(diff) != cert.diff_magnitude:
            messages.append(
                f"recorded magnitude {cert.diff_magnitude} != recomputed {abs(diff)}"
            )
            return VerifyReport(
                "rejected", level, maxout, True, method, abs(diff), tuple(messages)
            )
    return VerifyReport("accepted", level, maxout, True, method, abs(diff), tuple(messages))


def corona_cut_sides(g1: Graph, g2: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (all copies, hub) vertex split of corona(g1, g2): a one-way cut
    for every recipe-built orientation."""
    m = g1.n
    hub = tuple(range(m))
    leaves = tuple(range(m, m + m * g2.n))
    return leaves, hub
