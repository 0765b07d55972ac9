"""Composite orientations for cartesian products and coronas, plus the
certificate verifier.

Product rule (factors g1, g2 with orientations d1, d2): inside every copy of
g1 the edges follow d1 (rule R1); the cross edges between copy i and copy j
follow d2's direction on the factor edge v_i v_j (rule R2). Every composite
vertex (u, v_i) then has outdegree exactly outdeg_d1(u) + outdeg_d2(v_i).

Corona rule: the hub copy of g1 follows d1 (R1), each attached copy of g2
follows d2 (R2), and every hub link points from the copy vertex to its hub
(R3). Hub i keeps outdegree outdeg_d1(i); copy vertex (i, j) gets
outdeg_d2(j) + 1. The all-copies/hub split is a one-way cut, so the diff of
the composite factors exactly as diff(d1) * diff(d2)^m.

Product orientations carry no such global one-way cut; their diff is checked
by direct computation whenever an engine is within budget, and flagged
unverified otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .atsolver import ATCertificate
from .eulerian import (
    Orientation,
    eulerian_diff_poly,
    eulerian_tally_enumerate,
    induced_orientation,
    poly_state_bound,
)
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

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rule, _ in self.edge_rules:
            counts[rule] = counts.get(rule, 0) + 1
        return counts


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
    recipe_product_ok: Optional[bool]
    messages: tuple[str, ...]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def _engine_diff(
    d: Orientation, prefer_not: Optional[str], options: SolverOptions
) -> tuple[Optional[str], Optional[int]]:
    """Signed diff by an engine other than `prefer_not` when possible."""
    enum_ok = d.graph.m <= options.enum_cap
    poly_ok = poly_state_bound(d) <= options.poly_budget
    order = ["enumeration", "polynomial"]
    if prefer_not in order:
        order.remove(prefer_not)
        order.append(prefer_not)
    for engine in order:
        if engine == "enumeration" and enum_ok:
            return "enumeration", eulerian_tally_enumerate(d, options).diff
        if engine == "polynomial" and poly_ok:
            return "polynomial", eulerian_diff_poly(d, options)
    return None, None


def verify_certificate(
    cert: Union[ATCertificate, Orientation],
    level: Optional[int] = None,
    options: SolverOptions = DEFAULT_OPTIONS,
    recipe: Optional[ConstructionRecipe] = None,
) -> VerifyReport:
    """Re-check a claimed AT certificate: outdegree bound, then diff != 0 via
    an engine other than the recorded one when both fit the budget. Corona
    recipes additionally re-derive the diff through the one-way-cut product
    law. Over-budget diff checks downgrade to an "outdegree-only" verdict
    (or accept outright via the bipartite closed form)."""
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
        return VerifyReport(
            "rejected", level, maxout, False, None, None, None, tuple(messages)
        )

    method, diff = _engine_diff(orientation, recorded, options)
    recipe_ok: Optional[bool] = None
    if recipe is not None and recipe.kind == "corona":
        recipe_ok = _corona_product_law_ok(orientation, recipe, diff, options)
        if recipe_ok is False:
            messages.append("one-way-cut product law mismatch")
            return VerifyReport(
                "rejected", level, maxout, True, method, None, False, tuple(messages)
            )

    if method is None:
        if bipartition(orientation.graph) is not None:
            messages.append("diff engines over budget; accepted by bipartite closed form")
            return VerifyReport(
                "accepted",
                level,
                maxout,
                True,
                "bipartite-closed-form",
                None,
                recipe_ok,
                tuple(messages),
            )
        messages.append("diff engines over budget; only the outdegree bound was checked")
        return VerifyReport(
            "outdegree-only", level, maxout, True, None, None, recipe_ok, tuple(messages)
        )
    if diff == 0:
        messages.append(f"diff is zero ({method})")
        return VerifyReport(
            "rejected", level, maxout, True, method, 0, recipe_ok, tuple(messages)
        )
    if isinstance(cert, ATCertificate) and cert.diff_magnitude is not None:
        # both engines agree on |diff|, so any recorded magnitude must match
        if abs(diff) != cert.diff_magnitude:
            messages.append(
                f"recorded magnitude {cert.diff_magnitude} != recomputed {abs(diff)}"
            )
            return VerifyReport(
                "rejected", level, maxout, True, method, abs(diff), recipe_ok, tuple(messages)
            )
    return VerifyReport(
        "accepted", level, maxout, True, method, abs(diff), recipe_ok, tuple(messages)
    )


def _corona_product_law_ok(
    orientation: Orientation,
    recipe: ConstructionRecipe,
    whole_diff: Optional[int],
    options: SolverOptions,
) -> Optional[bool]:
    """diff(D) == diff(d1) * diff(d2)^m across the copies/hub one-way cut."""
    d1, d2 = recipe.d1, recipe.d2
    if d1.graph.m > options.enum_cap or d2.graph.m > options.enum_cap:
        return None
    m = d1.graph.n
    diff1 = eulerian_tally_enumerate(d1, options).diff
    diff2 = eulerian_tally_enumerate(d2, options).diff
    predicted = diff1 * diff2**m
    if whole_diff is None:
        return None
    return whole_diff == predicted


def corona_cut_sides(g1: Graph, g2: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (all copies, hub) vertex split of corona(g1, g2): a one-way cut
    for every recipe-built orientation."""
    m = g1.n
    hub = tuple(range(m))
    leaves = tuple(range(m, m + m * g2.n))
    return leaves, hub
