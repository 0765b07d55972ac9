"""Alon-Tarsi number computation.

AT(G) is the least k such that some orientation with max outdegree k-1 has
diff != 0. The solver combines:

  * lower bounds: the pigeonhole bound ceil(max_density)+1 (any orientation
    has a vertex of outdegree >= density) and the chromatic number;
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
Path reversal itself lives in `density`, which also runs it at higher edge
multiplicities to find the exact rational density; that density is only
reported, never needed for an AT value.

Exact chromatic numbers come from bounds first and a search only where the
bounds disagree. A bipartite graph needs at most 2 colors. Otherwise a greedy
clique (or 3, for the odd cycle) bounds chi from below and DSATUR from above;
on a graph within chromatic_block_cap they often meet, and then that is chi.
Else chi is the max over biconnected blocks: each distinct block is bounded
the same way and, where its DSATUR bound beats the best block so far, searched
by a saturation-guided, symmetry-broken backtracker that honours the
at_exact deadline.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from operator import getitem
from typing import Optional, Sequence, Union

from .density import induced_edge_count, reverse_paths
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
from .graphs import Graph, bipartition, two_coloring
from .options import DEFAULT_OPTIONS, SolverOptions

Adjacency = Sequence[Sequence[int]]


@dataclass(frozen=True)
class ATCertificate:
    """An orientation witnessing AT(G) <= level.

    diff_magnitude is |diff| of the orientation, re-checked when the solver
    made the certificate. The solvers record None only when no diff engine
    was within budget and the nonzero-diff claim rests on the bipartite
    closed form, directly ("bipartite-closed-form") or through a corona
    factor ("product-law+closed-form"). Elsewhere None means unverified.
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


# ---------------------------------------------------------------------------
# Bounded-outdegree orientations (path reversal)
# ---------------------------------------------------------------------------


def bounded_outdegree_orientation(
    g: Graph, cap: Union[int, Sequence[int]]
) -> Optional[Orientation]:
    """An orientation with outdeg(v) <= cap(v) for every v, or None when
    impossible (Hakimi's theorem, decided by `density.reverse_paths`). `cap`
    is one bound for all vertices or one per vertex. When the caps sum to
    |E|, a result has exactly the given outdegrees.
    """
    caps = [cap] * g.n if isinstance(cap, int) else list(cap)
    if len(caps) != g.n:
        raise ValueError(f"need one cap per vertex: got {len(caps)} for {g.n} vertices")
    split = reverse_paths(g.n, g.edges, caps, 1)[0]
    return None if split is None else _split_orientation(g, split)


def _split_orientation(g: Graph, split: Sequence[int]) -> Orientation:
    """The orientation of a split at multiplicity 1: each edge leaves the
    endpoint that carries it, its second one (index 1) iff split[2k + 1]."""
    return Orientation(g, map(getitem, g.edges, split[1::2]))


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
        split, reached = reverse_paths(g.n, g.edges, [k] * g.n, 1)
        if split is not None:
            return UniformCap(k, _split_orientation(g, split), witness)
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


def _greedy_clique(adj: Adjacency) -> int:
    """Largest clique grown greedily in degree order from each of the eight
    highest-degree vertices; a lower bound on chi."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    masks = [sum(1 << w for w in a) for a in adj]
    best = 1 if n else 0
    for start in order[:8]:
        size, common = 1, masks[start]
        for v in order:
            if not common:
                break
            if common >> v & 1:
                size += 1
                common &= masks[v]
        best = max(best, size)
    return best


def _dsatur(adj: Adjacency) -> int:
    """Colors used by DSATUR (Brelaz 1979), an upper bound on chi: color next
    the uncolored vertex whose neighbors show the most distinct colors (ties:
    higher degree, then lower index), with the least color they leave free."""
    n = len(adj)
    seen = [0] * n  # bitmask of the colors on each vertex's neighbors
    rank = [len(a) for a in adj]  # n * (distinct neighbor colors) + degree
    uncolored = list(range(n))
    used = 0
    while uncolored:
        v = max(uncolored, key=rank.__getitem__)
        uncolored.remove(v)
        free = ~seen[v]
        bit = free & -free
        used = max(used, bit.bit_length())
        for u in adj[v]:
            if not seen[u] & bit:
                seen[u] |= bit
                rank[u] += n
    return used


def _k_colorable(adj: Adjacency, k: int, deadline: Optional[float] = None) -> bool:
    """Backtracking with most-saturated-first selection and color symmetry
    breaking (a vertex may open at most one fresh color class). Raises
    SearchTimeout past `deadline`, checked every 1024 nodes."""
    n = len(adj)
    color = [-1] * n
    forbid = [0] * n
    nodes = 0

    def pick() -> int:
        best, best_key = -1, (-1, -1, 0)
        for v in range(n):
            if color[v] == -1:
                key = (forbid[v].bit_count(), len(adj[v]), -v)
                if key > best_key:
                    best_key, best = key, v
        return best

    def rec(assigned: int, used: int) -> bool:
        nonlocal nodes
        if assigned == n:
            return True
        nodes += 1
        if deadline is not None and not nodes & 1023 and time.monotonic() > deadline:
            raise SearchTimeout
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


def chromatic_number(
    g: Graph,
    options: SolverOptions = DEFAULT_OPTIONS,
    *,
    deadline: Optional[float] = None,
) -> int:
    """Exact chi(G), from bounds where they meet and a search where not.

    A bipartite graph needs 1 color, or 2 with an edge. Otherwise, when G
    fits chromatic_block_cap (so no block can exceed it), max(3, greedy
    clique) == DSATUR on G is the answer. Else chi is the max over
    biconnected blocks; each distinct block (by local adjacency) is skipped
    when DSATUR colors it with at most the best so far, and searched from
    max(3, best, clique) upwards otherwise; a block that is all of G keeps
    G's bounds. Raises CapacityError when a non-bipartite block exceeds
    chromatic_block_cap, and SearchTimeout past `deadline`.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    adj = g.adjacency
    if two_coloring(adj) is not None:
        return 2 if g.m else 1
    cap = options.chromatic_block_cap
    whole = None
    if g.n <= cap:
        upper, clique = _dsatur(adj), _greedy_clique(adj)
        if max(3, clique) == upper:
            return upper
        whole = (upper, clique)
    best = 2
    solved: set[tuple[tuple[int, ...], ...]] = set()
    for blk in biconnected_blocks(g):
        if len(blk) == 2:
            continue
        if whole is not None and len(blk) == g.n:
            # G is one block: its local adjacency is adj, bounded above
            local, (upper, clique) = adj, whole
        else:
            index = {v: i for i, v in enumerate(blk)}
            local = tuple(tuple(index[w] for w in adj[v] if w in index) for v in blk)
            if local in solved:
                continue
            solved.add(local)
            if two_coloring(local) is not None:
                continue
            if len(blk) > cap:
                raise CapacityError(
                    f"block with {len(blk)} vertices exceeds chromatic budget {cap}"
                )
            upper = _dsatur(local)
            if upper <= best:
                continue
            clique = _greedy_clique(local)
        k = max(3, best, clique)
        while k < upper and not _k_colorable(local, k, deadline):
            k += 1
        best = k
    return best


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def at_lower_bound(
    g: Graph,
    options: SolverOptions = DEFAULT_OPTIONS,
    *,
    deadline: Optional[float] = None,
) -> tuple[int, str]:
    """Best available lower bound for AT(G) with the reason that won.

    Terms: ceil(max_density)+1 (pigeonhole on outdegrees) and chi(G) when
    the chromatic solver is within budget and `deadline` (chi <= AT).
    Chromatic wins ties. The first term is the least uniform cap plus one;
    its vertex-set witness is recounted, so the bound does not rest on path
    reversal alone.
    """
    best = _checked_uniform_cap(g).cap + 1
    reason = "density-pigeonhole"
    try:
        chi = chromatic_number(g, options, deadline=deadline)
    except (CapacityError, SearchTimeout):
        chi = None
    if chi is not None and chi >= best:
        best, reason = chi, "chromatic"
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
        None if options.time_budget is None else time.monotonic() + options.time_budget
    )
    lower, reason = at_lower_bound(g, options, deadline=deadline)
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
