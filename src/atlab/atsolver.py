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
    AT > k. The search takes per-vertex caps, as path reversal does, which
    realizes a found sequence for an independent re-check. An acyclic
    orientation along a degeneracy order (diff = 1, the empty subdigraph
    alone) caps the search from above at the degeneracy plus one, where the
    level loop also ends on CapacityError or SearchTimeout.

Every result keeps the (value, reason) lower terms and the one certificate
that `bracket` joined: lo is the first greatest term, so the term order is
the tie order, and hi is the certificate's level. A term above the level
contradicts a proof and raises ProofObligationError. `at_lower_bound` gives
[chromatic, density-pigeonhole] and each refuted level k appends
(k + 1, exhaustive-refutation); `at_bipartite` gives [density-pigeonhole,
chromatic]; the corona pinch in `theorems` gives [subgraph, chromatic], its
chromatic term being H's plus one (the cone K1 + H). A "chromatic" term is
always chi: where `chromatic_number` gives up, on a non-bipartite block, it
is (3, "odd-cycle") instead, and the pinch's cone term is (4, "odd-wheel").

`at_exact` builds only the certificate it returns. One heap peel gives the
degeneracy order and level, so the acyclic certificate is built only when
no search level returns. The density term needs the least uniform cap and
its vertex-set witness, not its orientation, which `UniformCap` keeps as a
split and builds when read (`at_bipartite` reads it).

`at_exact` computes the density term only when it can beat the chromatic
term, which comes first in tie order. The density term is at most the
degeneracy level, since the acyclic orientation meets cap = degeneracy, and
at most ceil(max degree / 2) + 1, since every vertex set S spans at most
max degree * |S| / 2 edges. So when the chromatic term reaches either bound,
leaving the density term out changes no bracket, reason or certificate.

ceil(max_density) is the least uniform cap k that path reversal can meet
(Hakimi's theorem). `least_uniform_cap` finds it by trying k = ceil(|E|/|V|),
k+1, ... and returns a witness for each side: an orientation with every
outdegree <= k, and a vertex set spanning more than (k-1) edges per vertex.
Path reversal itself lives in `density`, which also runs it at higher edge
multiplicities to find the exact rational density; that density is only
reported, never needed for an AT value.

Exact chromatic numbers come from bounds first (the 2-coloring kept on the
graph, an odd cycle's 3, DSATUR, a greedy clique). Only where they disagree
does a saturation-guided, symmetry-broken backtracker search, block by block
and within the at_exact deadline; `chromatic_number` gives the order. Chi
depends on the graph alone, so the chi path (`chromatic_number`,
`at_lower_bound`) takes no SolverOptions; its one cap is the module constant
CHROMATIC_BLOCK_CAP, past which a non-bipartite block raises CapacityError.
A diff depends on the orientation alone, so `at_bipartite` and `_certify`
take none either: the diff engines' gates are constants of `eulerian`. Only
the level search and `at_exact` read SolverOptions.
"""

from __future__ import annotations

import heapq
import time
from operator import getitem, itemgetter
from typing import NamedTuple, Optional, Sequence, Union

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
)
from .graphs import Graph, bipartition, two_coloring
from .options import DEFAULT_OPTIONS, SolverOptions

Adjacency = Sequence[Sequence[int]]


class ATCertificate(NamedTuple):
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


class ATResult(NamedTuple):
    """Exact AT value when lo == hi, otherwise the proved bracket [lo, hi],
    read from the lower terms and the certificate that `bracket` joined."""

    terms: tuple[tuple[int, str], ...]
    certificate: ATCertificate

    @property
    def lo(self) -> int:
        return max(self.terms, key=itemgetter(0))[0]

    @property
    def hi(self) -> int:
        return self.certificate.level

    @property
    def lower_bound_reason(self) -> str:
        return max(self.terms, key=itemgetter(0))[1]

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Optional[int]:
        lo = self.lo
        return lo if lo == self.hi else None


def bracket(terms: Sequence[tuple[int, str]], cert: ATCertificate) -> ATResult:
    """The bracket [lo, cert.level] that proved (value, reason) lower terms
    make with a certificate. Raises ProofObligationError when a term exceeds
    the level."""
    lo, reason = max(terms, key=itemgetter(0))
    if lo > cert.level:
        raise ProofObligationError(
            f"{reason} lower bound {lo} exceeds certificate level {cert.level} ({cert.method})"
        )
    return ATResult(tuple(terms), cert)


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
    split = reverse_paths(g.edges, _caps(g, cap), 1)[0]
    return None if split is None else _split_orientation(g, split)


def _caps(g: Graph, cap: Union[int, Sequence[int]]) -> list[int]:
    caps = [cap] * g.n if isinstance(cap, int) else list(cap)
    if len(caps) != g.n:
        raise ValueError(f"need one cap per vertex: got {len(caps)} for {g.n} vertices")
    return caps


def _split_orientation(g: Graph, split: Sequence[int]) -> Orientation:
    """The orientation of a split at multiplicity 1: each edge leaves the
    endpoint that carries it, its second one (index 1) iff split[2k + 1]."""
    return Orientation(g, map(getitem, g.edges, split[1::2]))


class UniformCap(NamedTuple):
    """The least k admitting an orientation with every outdegree <= k, and
    both witnesses: such an orientation, and a vertex set R spanning more
    than (k-1)|R| edges, so every orientation gives some vertex of R
    outdegree >= k (pigeonhole). By Hakimi's theorem k = ceil(max density).
    When k = 0 (no edges) R is every vertex and bounds nothing.

    The orientation is kept as path reversal's split of `graph`'s edges and
    built when read: the density lower term needs only k and R."""

    cap: int
    graph: Graph
    split: tuple[int, ...]
    witness: tuple[int, ...]

    @property
    def orientation(self) -> Orientation:
        return _split_orientation(self.graph, self.split)


def least_uniform_cap(g: Graph) -> UniformCap:
    """Path reversal at caps ceil(|E|/|V|), ceil(|E|/|V|)+1, ... until one is
    feasible. The first cap is a lower bound with R = V; each failed cap k
    leaves the set its last search reached, which spans more than k|R|
    edges, as R for cap k+1."""
    k = -(-g.m // g.n) if g.n else 0
    witness = tuple(range(g.n))
    while True:
        split, reached = reverse_paths(g.edges, [k] * g.n, 1)
        if split is not None:
            return UniformCap(k, g, tuple(split), witness)
        witness = reached
        k += 1


def _checked_uniform_cap(g: Graph) -> UniformCap:
    """least_uniform_cap with its pigeonhole witness recounted; a witness
    that is every vertex spans every edge."""
    least = least_uniform_cap(g)
    k, r = least.cap, least.witness
    spanned = g.m if r == tuple(range(g.n)) else induced_edge_count(g, r)
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


# Max vertex count of a non-bipartite biconnected block that
# `chromatic_number` will search.
CHROMATIC_BLOCK_CAP = 64


def chromatic_number(g: Graph, *, deadline: Optional[float] = None) -> int:
    """Exact chi(G), from bounds where they meet and a search where not.

    A bipartite graph needs 1 color, or 2 with an edge. Any other graph needs
    at least 3, so DSATUR runs first and the greedy clique only when DSATUR
    colors with more than 3. When G fits CHROMATIC_BLOCK_CAP (so no block
    can exceed it), DSATUR == max(3, clique) on G is the answer. Else chi is
    the max over biconnected blocks; each distinct non-bipartite block (by
    local adjacency) whose DSATUR count is at most max(3, best so far) just
    raises the best to that count, and any other is searched from
    max(3, best, clique) upwards; a block that is all of G keeps G's bounds.
    Raises CapacityError when a non-bipartite block exceeds
    CHROMATIC_BLOCK_CAP, even where the bounds would settle it, and
    SearchTimeout past `deadline`.
    """
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    if bipartition(g) is not None:
        return 2 if g.m else 1
    adj = g.adjacency
    cap = CHROMATIC_BLOCK_CAP
    whole = None
    if g.n <= cap:
        upper = _dsatur(adj)
        if upper == 3:
            return 3
        clique = _greedy_clique(adj)
        if clique == upper:
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
            if upper <= max(3, best):
                best = max(best, upper)
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


def _chromatic_term(g: Graph, deadline: Optional[float]) -> tuple[int, str]:
    """(chi(G), "chromatic"), or (3, "odd-cycle") past CHROMATIC_BLOCK_CAP or
    `deadline`, where the solver gives up only on a non-bipartite block."""
    try:
        return chromatic_number(g, deadline=deadline), "chromatic"
    except (CapacityError, SearchTimeout):
        return 3, "odd-cycle"


def _density_term(g: Graph) -> tuple[int, str]:
    return _checked_uniform_cap(g).cap + 1, "density-pigeonhole"


def at_lower_bound(g: Graph) -> list[tuple[int, str]]:
    """The lower-bound terms for AT(G) in tie order, chromatic first:
    [(chi(G), "chromatic"), (ceil(max_density)+1, "density-pigeonhole")].

    chi <= AT; where chi is past CHROMATIC_BLOCK_CAP the first term is
    (3, "odd-cycle") instead. The density term (pigeonhole on outdegrees) is
    the least uniform cap plus one; its vertex-set witness is recounted, so
    the bound does not rest on path reversal alone.
    """
    return [_chromatic_term(g, None), _density_term(g)]


# ---------------------------------------------------------------------------
# Bipartite closed form
# ---------------------------------------------------------------------------


def at_bipartite(g: Graph) -> ATResult:
    """AT of a bipartite graph: ceil(max_density)+1, certificate included.

    Every orientation of a bipartite graph is an AT-orientation, so the
    orientation at the least uniform cap level-1 is a certificate; engine_diff
    recomputes its diff, or falls back on this closed form. Both witnesses
    are rechecked: the orientation's max outdegree against the cap, proving
    AT <= level, and the cap's vertex-set witness recounted, proving
    AT >= level. The terms
    are [density-pigeonhole, chromatic], chi being 2 (1 without edges);
    density comes first, so it gives the reason on a tie.
    """
    if bipartition(g) is None:
        raise ValueError("at_bipartite requires a bipartite graph")
    least = _checked_uniform_cap(g)
    level, d = least.cap + 1, least.orientation
    if d.max_outdegree() > least.cap:
        raise ProofObligationError(
            f"cap {least.cap} orientation has max outdegree {d.max_outdegree()}"
        )
    method, diff = engine_diff(d)
    if diff == 0:
        raise ProofObligationError("bipartite orientation computed diff 0")
    magnitude = None if diff is None else abs(diff)
    terms = [(level, "density-pigeonhole"), (2 if g.m else 1, "chromatic")]
    return bracket(terms, ATCertificate(level, d, magnitude, method))


# ---------------------------------------------------------------------------
# Level search
# ---------------------------------------------------------------------------


def find_at_orientation(
    g: Graph,
    cap: Union[int, Sequence[int]],
    options: SolverOptions = DEFAULT_OPTIONS,
    deadline: Optional[float] = None,
) -> Optional[Orientation]:
    """An AT-orientation with outdeg(v) <= cap(v) for every v, or None if
    there is none; `cap` is one bound for all vertices or one per vertex.

    All orientations with one outdegree sequence share |diff|, the
    coefficient of that monomial in prod_{uv} (x_u - x_v), so monomial_search
    over exponents <= cap(v) decides, and path reversal realizes its hit.
    The search clips the caps to the degrees and works out its own exponent
    floors (see monomial_search).
    Raises CapacityError past search_edge_cap and SearchTimeout past `deadline`.
    """
    if g.m > options.search_edge_cap:
        raise CapacityError(
            f"{g.m} edges exceeds search_edge_cap {options.search_edge_cap}"
        )
    order = frontier_order(g.adjacency)
    hit = monomial_search(g.edges, order, _caps(g, cap), deadline)
    if hit is None:
        return None
    d = bounded_outdegree_orientation(g, hit[0])
    if d is None:
        raise ProofObligationError("a nonzero coefficient has no orientation")
    return d


# ---------------------------------------------------------------------------
# Exact AT
# ---------------------------------------------------------------------------


def _peel(g: Graph) -> tuple[list[int], int]:
    """Vertices in repeated-minimum-degree removal order (ties: lowest
    index), and the degeneracy: the largest degree at removal time."""
    n, adjacency = g.n, g.adjacency
    deg = list(g.degrees())  # -1 once removed
    heap = list(zip(deg, range(n)))  # (degree, v), stale once either moves
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    degeneracy = 0
    while len(order) < n:  # then only stale entries are left
        d0, v = pop(heap)
        if d0 != deg[v]:
            continue
        deg[v] = -1
        order.append(v)
        if d0 > degeneracy:
            degeneracy = d0
        for w in adjacency[v]:
            d = deg[w]
            if d >= 0:
                deg[w] = d - 1
                push(heap, (d - 1, w))
    return order, degeneracy


def _acyclic_along(g: Graph, order: Sequence[int]) -> ATCertificate:
    """Certificate from the acyclic orientation along `order`: arcs point
    from earlier to later vertices, and a DAG has the empty subdigraph as its
    only Eulerian subdigraph, so diff = 1."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    tails = [u if pos[u] < pos[v] else v for u, v in g.edges]
    d = Orientation(g, tails)
    return ATCertificate(d.max_outdegree() + 1, d, 1, "acyclic")


def acyclic_certificate(g: Graph) -> ATCertificate:
    """Certificate from the acyclic orientation along a degeneracy order.

    Each vertex's outdegree is its removal-time degree, so the level is the
    degeneracy plus one.
    """
    return _acyclic_along(g, _peel(g)[0])


def _certify(g: Graph, d: Orientation) -> ATCertificate:
    """Re-check a found orientation with an independent computation: the
    tally when its largest strongly connected component is within
    eulerian.ENUM_CAP, else the coefficient along the reverse of the
    search's vertex order, which no budget gates."""
    try:
        diff, method = eulerian_tally_enumerate(d).diff, "enumeration"
    except CapacityError:
        diff, method = diff_coefficient(d, frontier_order(g.adjacency)[::-1]), "polynomial"
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

    Bipartite inputs short-circuit to `at_bipartite` unless disabled; the
    shortcut, at_bipartite and chi share the 2-coloring kept on G. The lower
    terms are those of `at_lower_bound`, the density term only where it can
    beat chi (see the module docstring). The search starts at the best lower
    term; each refuted level k proves AT > k, and the degeneracy level (the
    degeneracy plus one) bounds the search from above, and CapacityError or
    SearchTimeout ends it. The acyclic certificate at that level is built
    only when no search level returns.
    """
    if bipartite_shortcut and bipartition(g) is not None:
        return at_bipartite(g)
    deadline = (
        None if options.time_budget is None else time.monotonic() + options.time_budget
    )
    chi = _chromatic_term(g, deadline)
    order, degeneracy = _peel(g)
    terms = [chi]
    if chi[0] < min(degeneracy + 1, (g.max_degree() + 1) // 2 + 1):
        terms.append(_density_term(g))
    for k in range(max(terms)[0], degeneracy + 1):
        try:
            found = find_at_orientation(g, k - 1, options, deadline)
        except (CapacityError, SearchTimeout):
            break
        if found is not None:
            return bracket(terms, _certify(g, found))
        terms.append((k + 1, "exhaustive-refutation"))
    return bracket(terms, _acyclic_along(g, order))
