"""Composite orientations for cartesian products and coronas, plus the
certificate verifier.

Product rule (factors g1, g2 with orientations d1, d2): inside every copy of
g1 the edges follow d1 (rule R1); the cross edges between copy i and copy j
follow d2's direction on the factor edge v_i v_j (rule R2). Every composite
vertex (u, v_i) then has outdegree exactly outdeg_d1(u) + outdeg_d2(v_i).

Corona rule: the hub copy of g1 follows d1 (R1), each attached copy of g2
follows d2 (R2), and every hub link points from the copy vertex to its hub
(R3). Hub i keeps outdegree outdeg_d1(i); copy vertex (i, j) gets
outdeg_d2(j) + 1. These outdegrees are what the corona rows of `theorems`
read: their certificate level, max(maxout(d1), maxout(d2) + 1) + 1, comes
from the factors, and the orientation is built only where a certificate is
returned. The all-copies/hub split (corona_cut_sides) is a one-way cut, so
no strongly connected component crosses it and the diff of the composite
factors exactly as diff(d1) * diff(d2)^m. Both diff engines run per
component, so that law holds in every diff they compute, and
verify_certificate judges a certificate by its claim alone.
eulerian.one_way_cut_check, which confirms from arc directions alone that
every hub link points into its hub, is for library callers; no verdict
reads it, and it tallies no side.

Product orientations carry no such global one-way cut, but their strongly
connected components factor them the same way: every Eulerian subdigraph
stays inside the components, so diff is the product of the components'
diffs. With an acyclic d2, for instance, the components are the copies of
d1's. Both diff engines run per component and their budgets measure the
largest one, so the diff of a composite is computed directly whenever its
largest component is within budget, and flagged unverified otherwise.

The rules orient each composite edge by its place in the edge order that
cartesian_product and corona fix, so a rule set's name is the whole recipe:
each builder returns its orientation with the kind "product" or "corona",
the word a certificate document records on its `recipe` line.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .atsolver import ATCertificate
from .eulerian import Orientation, engine_diff
from .graphs import Graph, cartesian_product, corona


def product_orientation(
    g1: Graph, d1: Orientation, g2: Graph, d2: Orientation
) -> tuple[Orientation, str]:
    """Orientation of g1 [] g2 from factor orientations (rules R1/R2), and its kind."""
    if d1.graph != g1 or d2.graph != g2:
        raise ValueError("orientations do not match the given factor graphs")
    composite = cartesian_product(g1, g2)
    n1 = g1.n
    tails = [i * n1 + t for i in range(g2.n) for t in d1.tails]
    tails += [t * n1 + a for t in d2.tails for a in range(n1)]
    return Orientation(composite, tails), "product"


def corona_orientation(
    g1: Graph, d1: Orientation, g2: Graph, d2: Orientation
) -> tuple[Orientation, str]:
    """Orientation of g1 o g2 from factor orientations (rules R1/R2/R3), and its kind."""
    if d1.graph != g1 or d2.graph != g2:
        raise ValueError("orientations do not match the given factor graphs")
    composite = corona(g1, g2)
    m = g1.n
    # per copy: its edges follow d2, then each hub link leaves the copy vertex
    copy_tails = (*d2.tails, *range(g2.n))
    tails = list(d1.tails)
    for i in range(m):
        base = m + i * g2.n
        tails += [base + t for t in copy_tails]
    return Orientation(composite, tails), "corona"


class VerifyReport(NamedTuple):
    """Outcome of re-checking a claimed certificate."""

    verdict: str  # "accepted" | "rejected" | "outdegree-only"
    level: int
    max_outdegree: int
    diff_method: Optional[str]
    diff_magnitude: Optional[int]
    messages: tuple[str, ...]

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def verify_certificate(cert: ATCertificate) -> VerifyReport:
    """Re-check a claimed AT certificate: outdegree bound, then diff != 0 by
    engine_diff with the recorded engine last, so the other one re-checks
    when it fits. The certificate alone decides the report: each engine's
    gate is its module constant. The bipartite closed form accepts without a
    magnitude; no answer (both engines over budget, not bipartite) is
    "outdegree-only".
    A composite's product law needs no check of its own: the engines
    multiply per strongly connected component, so the diff they compute
    already factors across the copies/hub cut. The verdict is the whole
    answer, and `atlab verify` exits with it."""
    level, maxout = cert.level, cert.orientation.max_outdegree()
    if maxout > level - 1:
        note = f"outdegree violation: max outdegree {maxout} > {level - 1}"
        return VerifyReport("rejected", level, maxout, None, None, (note,))
    method, diff = engine_diff(cert.orientation, cert.method)
    magnitude = None if diff is None else abs(diff)
    verdict, note = "accepted", None
    if method is None:
        verdict = "outdegree-only"
        note = "diff engines over budget; only the outdegree bound was checked"
    elif diff is None:
        note = "diff engines over budget; accepted by bipartite closed form"
    elif diff == 0:
        verdict, note = "rejected", f"diff is zero ({method})"
    elif cert.diff_magnitude not in (None, magnitude):
        # both engines agree on |diff|, so any recorded magnitude must match
        verdict = "rejected"
        note = f"recorded magnitude {cert.diff_magnitude} != recomputed {magnitude}"
    return VerifyReport(verdict, level, maxout, method, magnitude, () if note is None else (note,))


def corona_cut_sides(g1: Graph, g2: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (all copies, hub) vertex split of corona(g1, g2): a one-way cut
    for every recipe-built orientation."""
    m = g1.n
    hub = tuple(range(m))
    leaves = tuple(range(m, m + m * g2.n))
    return leaves, hub
