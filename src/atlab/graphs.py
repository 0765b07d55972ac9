"""Labeled simple undirected graphs, family generators and graph products.

Graphs are immutable: a tuple of vertex labels plus a tuple of edges given as
index pairs (i, j) with i < j, in construction order. Construction order is
part of the contract — building the same family twice yields bit-identical
vertex and edge sequences, which is what makes orientation certificates
portable across runs. `bipartition` computes a graph's 2-coloring on first
use and keeps it on the graph.

Label conventions:
  * hypercube vertices are binary strings of length n ("000", "001", ...),
    adjacent iff they differ in exactly one position;
  * generator families (cycle, path, star, complete, trees) use "0", "1", ...;
  * cartesian products use (u_label, v_label) pairs;
  * coronas use (i, "hub") for vertex i of the base graph and (i, j) for
    vertex j of the i-th attached copy.

Checked and unchecked construction:
  * `Graph(vertices, edges)` checks its input: the vertex cap, distinct
    labels, and every edge for int endpoints (not bools), range, self-loop
    and duplicate. Documents, the CLI, callers and `tree_from_edges` (the
    caller's edge list) build this way.
  * hypercube, cycle, path, star, complete, complete_bipartite,
    tree_from_pruefer, cartesian_product and corona build through the private
    `_built`, which skips those checks. Each refuses sizes over VERTEX_CAP
    before it builds a list, validates its own arguments, and emits distinct
    labels and only distinct in-range edges (i, j) with i < j, so the checks
    could not fire; the products take Graphs, which are valid already. Both
    ways fill the graph through the same `Graph._fill`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import SizeCapError

# Fail-early cap: downstream solvers are exponential, so refuse to build
# anything with more vertices than this.
VERTEX_CAP = 1 << 16

Label = object  # str, int, or nested tuples thereof

# `Graph._sides` until `bipartition` runs (its None means "not bipartite")
_UNCOLORED = object()


class Graph:
    """Immutable simple undirected graph with labeled vertices."""

    __slots__ = ("vertices", "edges", "_adj", "_hash", "_sides")

    def __init__(self, vertices: Sequence[Label], edges: Iterable[tuple[int, int]]):
        vertices = tuple(vertices)
        _refuse_over_cap(len(vertices), "graph")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        n = len(vertices)
        norm = []
        seen = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                # a bool or float would compare equal to an index, and a
                # document could not spell it
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        self._fill(vertices, tuple(norm))

    def _fill(self, vertices: tuple, edges: tuple) -> None:
        # the one place a Graph's slots are set, checked or not
        self.vertices = vertices
        self.edges = edges
        adj = [[] for _ in vertices]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        self._hash = hash((vertices, edges))
        self._sides = _UNCOLORED  # bipartition(self), kept on first use

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor indices per vertex, in edge-construction order."""
        return self._adj

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adj)

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _built(vertices: Sequence[Label], edges: Sequence[tuple[int, int]]) -> Graph:
    """Graph from a generator below, without Graph.__init__'s checks; the
    module docstring says why they could not fire on a generator's output."""
    g = object.__new__(Graph)
    g._fill(tuple(vertices), tuple(edges))
    return g


def _refuse_over_cap(count: int, what: str) -> None:
    # before any label or edge list exists: complete(VERTEX_CAP + 1) would
    # otherwise build about 2.1e9 edge tuples first
    if count > VERTEX_CAP:
        raise SizeCapError(f"{what} would have {count} vertices (cap {VERTEX_CAP})")


def hypercube(n: int) -> Graph:
    """n-cube on binary strings of length n; edges flip exactly one bit."""
    top = VERTEX_CAP.bit_length() - 1  # the largest n with 2^n <= VERTEX_CAP
    if n < 1 or n > top:
        raise SizeCapError(f"hypercube dimension must be in 1..{top}, got {n}")
    size = 1 << n
    vertices = [format(i, f"0{n}b") for i in range(size)]
    edges = []
    for i in range(size):
        for bit in range(n):
            j = i ^ (1 << bit)
            if j > i:
                edges.append((i, j))
    return _built(vertices, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _refuse_over_cap(n, "cycle")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return _built([str(i) for i in range(n)], edges)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    _refuse_over_cap(n, "path")
    return _built([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star on n vertices total: center "0" joined to n-1 leaves."""
    if n < 1:
        raise ValueError(f"star needs at least 1 vertex, got {n}")
    _refuse_over_cap(n, "star")
    return _built([str(i) for i in range(n)], [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    _refuse_over_cap(n, "complete graph")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _built([str(i) for i in range(n)], edges)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left side "0".."a-1", right side "a".."a+b-1"."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph must be nonempty")
    _refuse_over_cap(a + b, "complete bipartite graph")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return _built([str(i) for i in range(a + b)], edges)


def tree_from_pruefer(sequence: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into the tree on len(sequence)+2 vertices.

    The empty sequence decodes to K_2.
    """
    n = len(sequence) + 2
    _refuse_over_cap(n, "Pruefer tree")
    seq = list(sequence)
    for entry in seq:
        if not (0 <= entry < n):
            raise ValueError(f"Pruefer entry {entry} outside 0..{n - 1}")
    remaining_degree = [1] * n
    for entry in seq:
        remaining_degree[entry] += 1
    edges = []
    # Classic decode: repeatedly join the smallest leaf to the next entry.
    import heapq

    leaves = [v for v in range(n) if remaining_degree[v] == 1]
    heapq.heapify(leaves)
    for entry in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, entry), max(leaf, entry)))
        remaining_degree[entry] -= 1
        if remaining_degree[entry] == 1:
            heapq.heappush(leaves, entry)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return _built([str(i) for i in range(n)], edges)


def tree_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Tree given by an explicit edge list; validated to be connected and acyclic."""
    g = Graph([str(i) for i in range(n)], edges)
    if not is_tree(g):
        raise ValueError("edge list does not describe a tree")
    return g


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u,v) ~ (u',v') iff equal in one coordinate, adjacent in the other.

    Vertices are grouped by second-factor copy: copy i holds every (u, h_i).
    Edge order is all within-copy edges (copy by copy, each in g's edge
    order), then all cross edges (h-edge by h-edge, each swept in g's vertex
    order). |E| = |E(g)|*|V(h)| + |V(g)|*|E(h)|.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("cartesian product factors must be nonempty")
    _refuse_over_cap(g.n * h.n, "product")
    vertices = [(u, v) for v in h.vertices for u in g.vertices]
    # vertex (u_a, v_i) sits at index i*|V(g)| + a
    edges = []
    for i in range(h.n):
        base = i * g.n
        for a, b in g.edges:
            edges.append((base + a, base + b))
    for i, j in h.edges:
        for a in range(g.n):
            edges.append((i * g.n + a, j * g.n + a))
    return _built(vertices, edges)


def corona(g1: Graph, g2: Graph) -> Graph:
    """Corona: one copy of g1, plus a copy of g2 per g1-vertex joined fully to it.

    Vertex order: the m hub vertices (i, "hub") first, then copy 0, copy 1, ...
    with copy-i vertex j labeled (i, j). Edge order: g1's edges among the hubs,
    then per copy: g2's edges followed by the mandatory hub links.
    |E| = |E(g1)| + m*(|E(g2)| + |V(g2)|).
    """
    if g1.n == 0:
        raise ValueError("corona base graph must be nonempty")
    _refuse_over_cap(g1.n * (1 + g2.n), "corona")
    m = g1.n
    vertices: list[Label] = [(i, "hub") for i in range(m)]
    for i in range(m):
        vertices.extend((i, j) for j in range(g2.n))
    edges = list(g1.edges)
    for i in range(m):
        base = m + i * g2.n
        for a, b in g2.edges:
            edges.append((base + a, base + b))
        for j in range(g2.n):
            edges.append((i, base + j))
    return _built(vertices, edges)


def bipartition(g: Graph) -> Optional[tuple[int, ...]]:
    """Side 0 or 1 per vertex by BFS 2-coloring (two_coloring); None when
    some component has an odd cycle. Computed on first use and kept on g."""
    if g._sides is _UNCOLORED:
        sides = two_coloring(g.adjacency)
        g._sides = None if sides is None else tuple(sides)
    return g._sides


def two_coloring(adjacency: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Side 0 or 1 per vertex of the graph with these neighbor lists, by
    BFS from each lowest-index unvisited vertex; None on an odd cycle."""
    side = [-1] * len(adjacency)
    for start in range(len(adjacency)):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return side
