"""Shared corpus and independent oracles for the test suite.

The oracles here deliberately re-derive everything from definitions (full
subset scans, brute-force colorings) so the package's engines are checked
against code that shares nothing with them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from atlab import (
    DEFAULT_OPTIONS,
    CapacityError,
    DensityWitness,
    Graph,
    Orientation,
    SolverOptions,
    at_exact,
    cartesian_product,
    chromatic_number,
    complete,
    complete_bipartite,
    corona,
    cycle,
    eulerian_tally_enumerate,
    hypercube,
    orient,
    orientation_from_arcs,
    path,
    star,
    tree_from_pruefer,
)
from atlab.atsolver import biconnected_blocks
from atlab.graphs import is_connected


def corpus() -> list[tuple[str, Graph]]:
    """Deterministic instance zoo used by the cross-validation suites."""
    single = Graph(["0"], [])
    return [
        ("Q1", hypercube(1)),
        ("Q2", hypercube(2)),
        ("Q3", hypercube(3)),
        ("Q4", hypercube(4)),
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("C7", cycle(7)),
        ("C8", cycle(8)),
        ("P1", path(1)),
        ("P2", path(2)),
        ("P3", path(3)),
        ("P4", path(4)),
        ("P6", path(6)),
        ("S4", star(4)),
        ("S5", star(5)),
        ("S6", star(6)),
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("K23", complete_bipartite(2, 3)),
        ("K33", complete_bipartite(3, 3)),
        ("T5", tree_from_pruefer((0, 1, 2))),
        ("T6", tree_from_pruefer((3, 3, 3, 0))),
        ("Q2xK2", cartesian_product(hypercube(2), complete(2))),
        ("K2xP3", cartesian_product(complete(2), path(3))),
        ("C3xC3", cartesian_product(cycle(3), cycle(3))),
        ("K2oK1", corona(complete(2), single)),
        ("C3oC3", corona(cycle(3), cycle(3))),
        ("Q2oP3", corona(hypercube(2), path(3))),
        ("C5+pendant", Graph([str(i) for i in range(6)],
                             [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])),
    ]


def naive_tally(d: Orientation) -> tuple[int, int]:
    """Even/odd Eulerian subdigraph counts straight from the definition."""
    arcs = d.arcs
    n = d.graph.n
    even = odd = 0
    for r in range(len(arcs) + 1):
        for sub in combinations(arcs, r):
            bal = [0] * n
            for t, h in sub:
                bal[t] += 1
                bal[h] -= 1
            if all(x == 0 for x in bal):
                if r % 2 == 0:
                    even += 1
                else:
                    odd += 1
    return even, odd


def naive_chromatic(g: Graph, k_max: int = 6) -> int:
    """Smallest k admitting a proper coloring, by raw backtracking."""
    n = g.n
    adj = g.adjacency

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def rec(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if rec(v + 1):
                        return True
                    colors[v] = -1
            return False

        return rec(0)

    for k in range(1, k_max + 1):
        if colorable(k):
            return k
    raise AssertionError(f"not {k_max}-colorable")


def is_gallai_tree(g: Graph) -> bool:
    """Whether every block of g is a complete graph or an odd cycle. A block's
    vertices span only that block's edges, so counting them decides it; the
    blocks come from `biconnected_blocks`, which the level search does not
    use."""
    for blk in biconnected_blocks(g):
        k = len(blk)
        m = induced_subgraph(g, blk)[0].m
        if m != k * (k - 1) // 2 and not (k % 2 and m == k):
            return False
    return True


def max_density_bruteforce(g: Graph) -> DensityWitness:
    """Exhaustive oracle over all nonempty vertex subsets (|V| <= 20).

    Ties broken toward smaller subsets, then lexicographically least.
    """
    if g.n == 0:
        raise ValueError("density of the empty graph is undefined")
    if g.n > 20:
        raise CapacityError(f"brute-force density capped at 20 vertices, got {g.n}")
    n = g.n
    nbr_mask = [0] * n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    edge_count = [0] * (1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        edge_count[mask] = edge_count[rest] + (nbr_mask[top] & rest).bit_count()
    best_e, best_s, best_mask = 0, 1, 1
    for mask in range(1, 1 << n):
        e = edge_count[mask]
        s = mask.bit_count()
        # compare e/s with best_e/best_s by cross-multiplication
        lhs, rhs = e * best_s, best_e * s
        if lhs > rhs:
            best_e, best_s, best_mask = e, s, mask
        elif lhs == rhs:
            if s < best_s or (s == best_s and _mask_subset(mask) < _mask_subset(best_mask)):
                best_e, best_s, best_mask = e, s, mask
    return DensityWitness(Fraction(best_e, best_s), _mask_subset(best_mask))


def _mask_subset(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def induced_subgraph(g: Graph, keep) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by vertex indices `keep`; also returns old->new map."""
    keep = sorted(set(keep))
    remap = {old: new for new, old in enumerate(keep)}
    sub_edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    return Graph([g.vertices[i] for i in keep], sub_edges), remap


def induced_orientation(d: Orientation, keep) -> Orientation:
    """Restriction of d to the subgraph induced by vertex indices `keep`."""
    sub, remap = induced_subgraph(d.graph, keep)
    tails = [
        remap[t]
        for (u, v), t in zip(d.graph.edges, d.tails)
        if u in remap and v in remap
    ]
    return orient(sub, tails)


def crossing_arcs(d: Orientation, left) -> tuple[list, list]:
    """The arcs of d that leave the vertex set `left`, and those that enter it."""
    left = set(left)
    leaving = [(t, h) for t, h in d.arcs if t in left and h not in left]
    entering = [(t, h) for t, h in d.arcs if t not in left and h in left]
    return leaving, entering


def cut_reference(d: Orientation, left) -> tuple:
    """The tally's diff of d's induced orientation on `left`, on the other
    vertices, and of d whole, each None past ENUM_CAP: the reference route
    for the one-way cut law diff(D) = diff(D[left]) * diff(D[right])."""
    left = set(left)

    def tally(sub: Orientation):
        try:
            return eulerian_tally_enumerate(sub).diff
        except CapacityError:
            return None

    right = [v for v in range(d.graph.n) if v not in left]
    return tally(induced_orientation(d, left)), tally(induced_orientation(d, right)), tally(d)


def recipe_tail_labels(kind: str, d1: Orientation, d2: Orientation, composite: Graph) -> list:
    """The paper's product or corona rules applied edge by edge, read from
    the composite's vertex labels alone: the label of each edge's tail. An
    edge inside a copy of a factor follows that factor's orientation, a
    product cross edge follows d2, and a corona hub link leaves the copy
    vertex."""

    def tail(d, x, y):  # index of the tail d gives the factor edge {x, y}
        return next(t for e, t in zip(d.graph.edges, d.tails) if set(e) == {x, y})

    g1, g2 = d1.graph, d2.graph
    labels = []
    for u, v in composite.edges:
        a, b = composite.vertices[u], composite.vertices[v]
        if kind == "product":  # (g1 label, g2 label)
            (a1, a2), (b1, b2) = a, b
            if a2 == b2:
                t = tail(d1, g1.vertices.index(a1), g1.vertices.index(b1))
                labels.append((g1.vertices[t], a2))
            else:
                t = tail(d2, g2.vertices.index(a2), g2.vertices.index(b2))
                labels.append((a1, g2.vertices[t]))
        else:  # (hub index, "hub") or (hub index, g2 index)
            (i, x), (k, y) = a, b
            if x == y == "hub":
                labels.append((tail(d1, i, k), "hub"))
            elif x == "hub" or y == "hub":
                labels.append(b if x == "hub" else a)
            else:
                labels.append((i, tail(d2, x, y)))
    return labels


def chromatic_at_choosable(
    g: Graph, options: SolverOptions = DEFAULT_OPTIONS
) -> tuple[int, int, bool]:
    """(chi, AT, chi == AT) from the generic solvers; both must give exact
    values."""
    chi = chromatic_number(g)
    result = at_exact(g, options)
    if not result.is_exact:
        raise CapacityError(
            f"AT solver returned bracket [{result.lo}, {result.hi}]; "
            "cannot decide chromatic-AT choosability"
        )
    return chi, result.value, chi == result.value


def mycielski(g: Graph) -> Graph:
    """Mycielski's construction: a copy u' of each vertex u joined to u's
    neighbors, and a new vertex joined to every copy. Raises chi by one and
    keeps the graph triangle-free."""
    n = g.n
    edges = list(g.edges)
    for u, v in g.edges:
        edges += [(u, n + v), (v, n + u)]
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph([str(i) for i in range(2 * n + 1)], edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph([str(i) for i in range(n)], edges)


def random_orientation(rng: random.Random, g: Graph) -> Orientation:
    return orient(g, [e[rng.randint(0, 1)] for e in g.edges])


def random_regular_graph(rng: random.Random, n: int, k: int) -> Graph:
    """A connected simple k-regular graph on n vertices: random pairings of
    the n * k edge ends, drawn until one has no loop, no repeated edge and
    one component."""
    while True:
        ends = [v for v in range(n) for _ in range(k)]
        rng.shuffle(ends)
        edges = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2]) if a != b}
        if len(edges) == n * k // 2:
            g = Graph([str(i) for i in range(n)], sorted(edges))
            if is_connected(g):
                return g


def euler_circuit_orientation(g: Graph) -> Orientation:
    """A connected graph with all degrees even, oriented along an Eulerian
    circuit (Hierholzer, from vertex 0): every vertex has indegree equal to
    outdegree, so the orientation is strongly connected."""
    unused = [list(a) for a in g.adjacency]
    used = set()
    stack, arcs = [0], []
    while stack:
        v = stack[-1]
        while unused[v] and (min(v, unused[v][-1]), max(v, unused[v][-1])) in used:
            unused[v].pop()
        if unused[v]:
            w = unused[v].pop()
            used.add((min(v, w), max(v, w)))
            stack.append(w)
        else:
            stack.pop()
            if stack:
                arcs.append((stack[-1], v))
    return orientation_from_arcs(g, arcs)


def random_bipartite_graph(rng: random.Random, max_side: int, max_edges: int) -> Graph:
    a = rng.randint(1, max_side)
    b = rng.randint(1, max_side)
    all_pairs = [(i, a + j) for i in range(a) for j in range(b)]
    rng.shuffle(all_pairs)
    want = rng.randint(1, min(max_edges, len(all_pairs)))
    edges = sorted(all_pairs[:want])
    return Graph([str(i) for i in range(a + b)], edges)
