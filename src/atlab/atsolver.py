"""Alon-Tarsi number computation.

AT(G) is the least k such that some orientation with max outdegree k-1 has
diff != 0. The solver combines:

  * lower bounds: the pigeonhole bound ceil(max_density)+1 (any orientation
    has a vertex of outdegree >= density), the chromatic number, and caller
    supplied bounds for known subgraphs (AT is subgraph-monotone);
  * the bipartite closed form AT(G) = ceil(max_density)+1, where every
    orientation is an AT-orientation, so a bounded-outdegree orientation is
    itself the certificate;
  * a level search over outdegree sequences: every orientation with
    outdegree sequence d has |diff| equal to the coefficient of
    prod_v x_v^(d_v) in prod_{uv} (x_u - x_v) (Alon-Tarsi), so AT(G) <= k
    iff some monomial with every exponent <= k-1 has a nonzero coefficient.
    The frontier-ordered coefficient program of `eulerian` decides this by
    branching on each vertex's final exponent; a refuted level k proves
    AT > k. A found sequence becomes an orientation by path reversal with
    per-vertex caps and is re-checked by an independent computation. An
    acyclic orientation along a degeneracy order (diff = 1, the empty
    subdigraph alone) caps the search from above.

ceil(max_density) is the least uniform cap k that path reversal can meet
(Hakimi's theorem). `least_uniform_cap` finds it by trying k = ceil(|E|/|V|),
k+1, ... and returns a witness for each side: an orientation with every
outdegree <= k, and a vertex set spanning more than (k-1) edges per vertex.
The exact rational density (the flow search in `density`) is only reported,
never needed for an AT value.

Exact chromatic numbers come from biconnected-block decomposition (chi is the
max over blocks) with a saturation-guided, symmetry-broken backtracker per
block.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .density import induced_edge_count
from .density import max_density  # noqa: F401  unused; bench/test_bench.py pins this name
from .errors import CapacityError, ProofObligationError, SearchTimeout
from .eulerian import (
    Orientation,
    diff_coefficient,
    engine_diff,
    eulerian_tally_enumerate,
    frontier_order,
    monomial_search,
    within_budget,
)
from .graphs import Graph, bipartition
from .options import DEFAULT_OPTIONS, SolverOptions


@dataclass(frozen=True)
class ATCertificate:
    """An orientation witnessing AT(G) <= level.

    diff_magnitude is None when no diff engine was within budget and the
    nonzero-diff claim rests on the bipartite closed form or the one-way-cut
    product law (see `method`).
    """

    level: int
    orientation: Orientation
    diff_magnitude: Optional[int]
    method: str

    def outdegree_ok(self) -> bool:
        return self.orientation.max_outdegree() <= self.level - 1


@dataclass(frozen=True)
class ATResult:
    """Exact AT value when lo == hi, otherwise the proved bracket [lo, hi]."""

    lo: int
    hi: int
    certificate: Optional[ATCertificate]
    lower_bound_reason: str

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None


@dataclass(frozen=True)
class ChoosabilityReport:
    chi: int
    at: int
    choosable: bool


# ---------------------------------------------------------------------------
# Bounded-outdegree orientations (path reversal)
# ---------------------------------------------------------------------------


def bounded_outdegree_orientation(
    g: Graph, cap: Union[int, Sequence[int]]
) -> Optional[Orientation]:
    """An orientation with outdeg(v) <= cap(v) for every v, or None when
    impossible. `cap` is one bound for all vertices or one per vertex.

    Greedy start (each edge leaves the endpoint with more spare capacity),
    then repeatedly reverse a directed path from an overloaded vertex to one
    with spare capacity. When no such path exists the reachable set R from an
    overloaded vertex has all arcs staying inside R and every outdegree at
    its cap (one above it), so R spans more than sum_R cap(v) edges and no
    valid orientation exists (Hakimi's theorem). So when the caps sum to
    |E|, a result has exactly the given outdegrees.
    """
    caps = [cap] * g.n if isinstance(cap, int) else list(cap)
    if len(caps) != g.n:
        raise ValueError(f"need one cap per vertex: got {len(caps)} for {g.n} vertices")
    return _reverse_paths(g, caps)[0]


def _reverse_paths(
    g: Graph, caps: list[int]
) -> tuple[Optional[Orientation], tuple[int, ...]]:
    """Path reversal under per-vertex caps: (orientation, ()) when one
    exists, else (None, R) with R the vertex set the last search reached,
    which spans more than sum_R cap(v) edges."""
    n = g.n
    tails = []
    outdeg = [0] * n
    for u, v in g.edges:
        t = u if (outdeg[u] - caps[u], u) <= (outdeg[v] - caps[v], v) else v
        tails.append(t)
        outdeg[t] += 1
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(g.edges):
        incident[u].append(k)
        incident[v].append(k)
    edges = g.edges
    while True:
        over = next((v for v in range(n) if outdeg[v] > caps[v]), None)
        if over is None:
            break
        parent_edge = [-1] * n
        parent = [-1] * n
        seen = [False] * n
        seen[over] = True
        queue = [over]
        target = -1
        for x in queue:
            if outdeg[x] < caps[x]:
                target = x
                break
            for k in incident[x]:
                if tails[k] != x:
                    continue
                u, v = edges[k]
                head = v if x == u else u
                if not seen[head]:
                    seen[head] = True
                    parent[head] = x
                    parent_edge[head] = k
                    queue.append(head)
        if target < 0:
            return None, tuple(sorted(queue))
        x = target
        while x != over:
            k = parent_edge[x]
            tails[k] = x
            x = parent[x]
        outdeg[over] -= 1
        outdeg[target] += 1
    return Orientation(g, tails), ()


@dataclass(frozen=True)
class UniformCap:
    """The least k admitting an orientation with every outdegree <= k, and
    both witnesses: such an orientation, and a vertex set R spanning more
    than (k-1)|R| edges, so every orientation gives some vertex of R
    outdegree >= k (pigeonhole). By Hakimi's theorem k = ceil(max density).
    When k = 0 (no edges) R is every vertex and bounds nothing."""

    cap: int
    orientation: Orientation
    witness: tuple[int, ...]


def least_uniform_cap(g: Graph) -> UniformCap:
    """Path reversal at caps ceil(|E|/|V|), ceil(|E|/|V|)+1, ... until one is
    feasible. The first cap is a lower bound with R = V; each failed cap k
    leaves the set its last search reached, which spans more than k|R|
    edges, as R for cap k+1."""
    k = -(-g.m // g.n) if g.n else 0
    witness = tuple(range(g.n))
    while True:
        d, reached = _reverse_paths(g, [k] * g.n)
        if d is not None:
            return UniformCap(k, d, witness)
        witness = reached
        k += 1


def _checked_uniform_cap(g: Graph) -> UniformCap:
    """least_uniform_cap with its pigeonhole witness recounted."""
    least = least_uniform_cap(g)
    k, r = least.cap, least.witness
    spanned = induced_edge_count(g, r)
    if k and spanned <= (k - 1) * len(r):
        raise ProofObligationError(
            f"cap {k} witness spans {spanned} <= {k - 1}*{len(r)} edges"
        )
    return least


# ---------------------------------------------------------------------------
# Exact chromatic number
# ---------------------------------------------------------------------------


def biconnected_blocks(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the biconnected components (a bridge is a 2-vertex block)."""
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    blocks: list[tuple[int, ...]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        edge_stack: list[tuple[int, int]] = []
        stack = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            v, parent, i = frame
            if i < len(adj[v]):
                frame[2] += 1
                w = adj[v][i]
                if w == parent:
                    continue
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, v, 0])
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= disc[pv]:
                        verts = set()
                        while True:
                            e = edge_stack.pop()
                            verts.add(e[0])
                            verts.add(e[1])
                            if e == (pv, v):
                                break
                        blocks.append(tuple(sorted(verts)))
    return blocks


def _greedy_clique(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    adjsets = [frozenset(a) for a in g.adjacency]
    best = 1 if g.n else 0
    for start in order[: min(g.n, 8)]:
        clique = [start]
        for v in order:
            if v != start and all(v in adjsets[u] for u in clique):
                clique.append(v)
        if len(clique) > best:
            best = len(clique)
    return best


def _greedy_coloring_bound(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    color = [-1] * g.n
    used = 0
    for v in order:
        forbid = {color[u] for u in g.adjacency[v] if color[u] >= 0}
        c = 0
        while c in forbid:
            c += 1
        color[v] = c
        used = max(used, c + 1)
    return used


def _k_colorable(g: Graph, k: int) -> bool:
    """Backtracking with most-saturated-first selection and color symmetry
    breaking (a vertex may open at most one fresh color class)."""
    n = g.n
    adj = g.adjacency
    color = [-1] * n
    forbid = [0] * n

    def pick() -> int:
        best, best_key = -1, (-1, -1, 0)
        for v in range(n):
            if color[v] == -1:
                key = (forbid[v].bit_count(), len(adj[v]), -v)
                if key > best_key:
                    best_key, best = key, v
        return best

    def rec(assigned: int, used: int) -> bool:
        if assigned == n:
            return True
        v = pick()
        avail = ~forbid[v] & ((1 << min(k, used + 1)) - 1)
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length() - 1
            color[v] = c
            touched = []
            for u in adj[v]:
                if color[u] == -1 and not (forbid[u] & bit):
                    forbid[u] |= bit
                    touched.append(u)
            if rec(assigned + 1, max(used, c + 1)):
                return True
            for u in touched:
                forbid[u] ^= bit
            color[v] = -1
        return False

    return rec(0, 0)


def chromatic_number(g: Graph, options: SolverOptions = DEFAULT_OPTIONS) -> int:
    """Exact chi(G); chi is the max over biconnected blocks, so only blocks
    are searched. Raises CapacityError when a block exceeds the budget."""
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    best = 1
    for blk in biconnected_blocks(g):
        if best < 2:
            best = 2  # a block has at least one edge
        if len(blk) == 2:
            continue
        sub, _ = g.induced_subgraph(blk)
        if bipartition(sub) is not None:
            continue
        if sub.n > options.chromatic_block_cap:
            raise CapacityError(
                f"block with {sub.n} vertices exceeds chromatic budget "
                f"{options.chromatic_block_cap}"
            )
        lb = max(3, _greedy_clique(sub))
        ub = _greedy_coloring_bound(sub)
        if ub > best:
            value = ub
            for k in range(lb, ub):
                if _k_colorable(sub, k):
                    value = k
                    break
            if value > best:
                best = value
    return best


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def at_lower_bound(
    g: Graph,
    options: SolverOptions = DEFAULT_OPTIONS,
    known_subgraph_bounds: Iterable[tuple[str, int]] = (),
) -> tuple[int, str]:
    """Best available lower bound for AT(G) with the reason that won.

    Terms: ceil(max_density)+1 (pigeonhole on outdegrees), chi(G) when the
    chromatic solver is within budget (chi <= AT), and any caller-registered
    lower bounds for subgraphs (AT is subgraph-monotone). Chromatic wins ties.
    The first term is the least uniform cap plus one; its vertex-set witness
    is recounted, so the bound does not rest on path reversal alone.
    """
    best = _checked_uniform_cap(g).cap + 1
    reason = "density-pigeonhole"
    try:
        chi = chromatic_number(g, options)
    except CapacityError:
        chi = None
    if chi is not None and chi >= best:
        best, reason = chi, "chromatic"
    for _name, bound in known_subgraph_bounds:
        if bound > best:
            best, reason = bound, "subgraph"
    return best, reason


# ---------------------------------------------------------------------------
# Bipartite closed form
# ---------------------------------------------------------------------------


def at_bipartite(g: Graph, options: SolverOptions = DEFAULT_OPTIONS) -> ATResult:
    """AT of a bipartite graph: ceil(max_density)+1, certificate included.

    Every orientation of a bipartite graph is an AT-orientation, so the
    orientation at the least uniform cap level-1 is a certificate; its diff
    is additionally recomputed whenever an engine is within budget. The
    cap's vertex-set witness is recounted, proving AT >= level.
    """
    if bipartition(g) is None:
        raise ValueError("at_bipartite requires a bipartite graph")
    least = _checked_uniform_cap(g)
    level, d = least.cap + 1, least.orientation
    method, diff = engine_diff(d, options)
    if diff == 0:
        raise ProofObligationError("bipartite orientation computed diff 0")
    if method is None:
        method, magnitude = "bipartite-closed-form", None
    else:
        magnitude = abs(diff)
    cert = ATCertificate(level, d, magnitude, method)
    return ATResult(level, level, cert, "density-pigeonhole")


# ---------------------------------------------------------------------------
# Level search
# ---------------------------------------------------------------------------


def find_at_orientation(
    g: Graph,
    cap: int,
    options: SolverOptions = DEFAULT_OPTIONS,
    deadline: Optional[float] = None,
) -> Optional[Orientation]:
    """An AT-orientation with max outdegree <= cap, or None if there is none.

    All orientations with one outdegree sequence share |diff|, the
    coefficient of that monomial in prod_{uv} (x_u - x_v). So the level is
    decided by monomial_search over exponents <= cap, and the first sequence
    found is realized by path reversal. Raises SearchTimeout past `deadline`.
    """
    if g.m > options.search_edge_cap:
        raise CapacityError(
            f"{g.m} edges exceeds search_edge_cap {options.search_edge_cap}"
        )
    hit = monomial_search(g.n, g.edges, frontier_order(g), [0] * g.n, [cap] * g.n, deadline)
    if hit is None:
        return None
    d = bounded_outdegree_orientation(g, hit[0])
    if d is None:
        raise ProofObligationError("a nonzero coefficient has no orientation")
    return d


# ---------------------------------------------------------------------------
# Exact AT
# ---------------------------------------------------------------------------


def degeneracy_order(g: Graph) -> list[int]:
    """Vertices in repeated-minimum-degree removal order (ties: lowest index)."""
    deg = list(g.degrees())
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    removed = [False] * g.n
    order = []
    while heap:
        d0, v = heapq.heappop(heap)
        if removed[v] or d0 != deg[v]:
            continue
        removed[v] = True
        order.append(v)
        for w in g.adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


def acyclic_certificate(g: Graph) -> ATCertificate:
    """Certificate from the acyclic orientation along a degeneracy order.

    Arcs point from earlier-removed to later-removed vertices, so each vertex
    has outdegree equal to its removal-time degree (<= the degeneracy), and a
    DAG has the empty subdigraph as its only Eulerian subdigraph: diff = 1.
    """
    pos = [0] * g.n
    for i, v in enumerate(degeneracy_order(g)):
        pos[v] = i
    tails = [u if pos[u] < pos[v] else v for u, v in g.edges]
    d = Orientation(g, tails)
    return ATCertificate(d.max_outdegree() + 1, d, 1, "acyclic")


def at_bounds(g: Graph, options: SolverOptions = DEFAULT_OPTIONS) -> ATResult:
    """Cheap bracket: best lower bound vs. the degeneracy certificate."""
    lower, reason = at_lower_bound(g, options)
    cert = acyclic_certificate(g)
    return ATResult(min(lower, cert.level), cert.level, cert, reason)


def _certify(g: Graph, d: Orientation, options: SolverOptions) -> ATCertificate:
    """Re-check a found orientation with an independent computation: the
    tally when its largest strongly connected component is within enum_cap,
    else the coefficient along the reverse of the search's vertex order."""
    if within_budget(d, "enumeration", options):
        diff, method = eulerian_tally_enumerate(d, options).diff, "enumeration"
    else:
        diff, method = diff_coefficient(d, frontier_order(g)[::-1]), "polynomial"
    if diff == 0:
        raise ProofObligationError(f"level search orientation has diff 0 ({method})")
    return ATCertificate(d.max_outdegree() + 1, d, abs(diff), method)


def at_exact(
    g: Graph,
    options: SolverOptions = DEFAULT_OPTIONS,
    *,
    bipartite_shortcut: bool = True,
) -> ATResult:
    """Exact AT(G) by the levelwise coefficient search, or a bracket over
    budget.

    Bipartite inputs short-circuit to the closed form unless disabled. The
    search starts at the best lower bound; each refuted level k proves
    AT > k, and the degeneracy certificate bounds the search from above.
    """
    if bipartite_shortcut and bipartition(g) is not None:
        return at_bipartite(g, options)
    deadline = (
        time.monotonic() + options.time_budget if options.time_budget else None
    )
    lower, reason = at_lower_bound(g, options)
    upper_cert = acyclic_certificate(g)
    hi = upper_cert.level
    if lower > hi:
        raise ProofObligationError(f"lower bound {lower} exceeds the acyclic bound {hi}")
    if lower == hi:
        return ATResult(hi, hi, upper_cert, reason)
    if g.m > options.search_edge_cap:
        return ATResult(lower, hi, upper_cert, reason)
    k = lower
    while k < hi:
        try:
            found = find_at_orientation(g, k - 1, options, deadline)
        except SearchTimeout:
            return ATResult(k, hi, upper_cert, reason)
        if found is not None:
            return ATResult(k, k, _certify(g, found, options), reason)
        k += 1
        reason = "exhaustive-refutation"
    return ATResult(hi, hi, upper_cert, reason)


def is_chromatic_at_choosable(
    g: Graph, options: SolverOptions = DEFAULT_OPTIONS
) -> ChoosabilityReport:
    """chi(G) == AT(G)? Both solvers must produce exact values."""
    chi = chromatic_number(g, options)
    result = at_exact(g, options)
    if not result.is_exact:
        raise CapacityError(
            f"AT solver returned bracket [{result.lo}, {result.hi}]; "
            "cannot decide chromatic-AT choosability"
        )
    return ChoosabilityReport(chi, result.value, chi == result.value)
