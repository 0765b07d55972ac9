"""Labeled simple undirected graphs, family generators and graph products.

Graphs are immutable: a tuple of vertex labels plus a tuple of edges given as
index pairs (i, j) with i < j, in construction order. Construction order is
part of the contract — building the same family twice yields bit-identical
vertex and edge sequences, which is what makes orientation certificates
portable across runs.

Label conventions:
  * hypercube vertices are binary strings of length n ("000", "001", ...),
    adjacent iff they differ in exactly one position;
  * generator families (cycle, path, star, complete, trees) use "0", "1", ...;
  * cartesian products use (u_label, v_label) pairs;
  * coronas use (i, "hub") for vertex i of the base graph and (i, j) for
    vertex j of the i-th attached copy.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import SizeCapError

# Fail-early cap: downstream solvers are exponential, so refuse to build
# anything with more vertices than this.
VERTEX_CAP = 1 << 16

# Default cap on the hypercube dimension (2^16 vertices).
HYPERCUBE_MAX_N = 16

Label = object  # str, int, or nested tuples thereof


class Graph:
    """Immutable simple undirected graph with labeled vertices."""

    __slots__ = ("vertices", "edges", "_adj", "_hash")

    def __init__(self, vertices: Sequence[Label], edges: Iterable[tuple[int, int]]):
        vertices = tuple(vertices)
        if len(vertices) > VERTEX_CAP:
            raise SizeCapError(
                f"{len(vertices)} vertices exceeds the construction cap {VERTEX_CAP}"
            )
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        n = len(vertices)
        norm = []
        seen = set()
        for u, v in edges:
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
        self.vertices = vertices
        self.edges = tuple(norm)
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(a) for a in adj)
        self._hash = hash((self.vertices, self.edges))

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


def hypercube(n: int) -> Graph:
    """n-cube on binary strings of length n; edges flip exactly one bit."""
    if n < 1 or n > HYPERCUBE_MAX_N:
        raise SizeCapError(f"hypercube dimension must be in 1..{HYPERCUBE_MAX_N}, got {n}")
    size = 1 << n
    vertices = [format(i, f"0{n}b") for i in range(size)]
    edges = []
    for i in range(size):
        for bit in range(n):
            j = i ^ (1 << bit)
            if j > i:
                edges.append((i, j))
    return Graph(vertices, edges)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph([str(i) for i in range(n)], edges)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs at least 1 vertex, got {n}")
    return Graph([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star on n vertices total: center "0" joined to n-1 leaves."""
    if n < 1:
        raise ValueError(f"star needs at least 1 vertex, got {n}")
    return Graph([str(i) for i in range(n)], [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph([str(i) for i in range(n)], edges)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left side "0".."a-1", right side "a".."a+b-1"."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph([str(i) for i in range(a + b)], edges)


def tree_from_pruefer(sequence: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into the tree on len(sequence)+2 vertices.

    The empty sequence decodes to K_2.
    """
    seq = list(sequence)
    n = len(seq) + 2
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
    return Graph([str(i) for i in range(n)], edges)


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
    if g.n * h.n > VERTEX_CAP:
        raise SizeCapError(f"product would have {g.n * h.n} vertices (cap {VERTEX_CAP})")
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
    return Graph(vertices, edges)


def corona(g1: Graph, g2: Graph) -> Graph:
    """Corona: one copy of g1, plus a copy of g2 per g1-vertex joined fully to it.

    Vertex order: the m hub vertices (i, "hub") first, then copy 0, copy 1, ...
    with copy-i vertex j labeled (i, j). Edge order: g1's edges among the hubs,
    then per copy: g2's edges followed by the mandatory hub links.
    |E| = |E(g1)| + m*(|E(g2)| + |V(g2)|).
    """
    if g1.n == 0:
        raise ValueError("corona base graph must be nonempty")
    total = g1.n * (1 + g2.n)
    if total > VERTEX_CAP:
        raise SizeCapError(f"corona would have {total} vertices (cap {VERTEX_CAP})")
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
    return Graph(vertices, edges)


def bipartition(g: Graph) -> Optional[list[int]]:
    """Side 0 or 1 per vertex by BFS 2-coloring (two_coloring); None when
    some component has an odd cycle."""
    return two_coloring(g.adjacency)


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
