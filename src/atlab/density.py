"""Exact maximum subgraph density |E(H)|/|V(H)| with a witnessing vertex set.

The flow route: for a guess g = a/b, build a network with a source feeding
one node per edge (capacity b after scaling), each edge node feeding its two
endpoint nodes (capacity large enough never to be cut), and each vertex node
feeding the sink with capacity a. A finite source/sink cut keeps an edge node
on the source side only if both endpoints are, so

    mincut = b*(|E| - e(S)) + a*|S|   minimized over vertex sets S,

and mincut < b*|E| iff some S has e(S)/|S| > a/b. Binary search over guesses:
every "yes" answer yields a concrete witness S (source side of the residual
graph) whose exact density replaces the lower bound, every "no" answer lowers
the upper bound. Distinct achievable densities are rationals with denominator
at most |V| and so differ by at least 1/|V|^2; once the interval is narrower
than that, the lower endpoint — always an achieved density — is the maximum.

All arithmetic is integer or Fraction; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError, ProofObligationError
from .graphs import Graph


@dataclass(frozen=True)
class DensityWitness:
    """Exact maximum density together with a subset achieving it."""

    density: Fraction
    witness: tuple[int, ...]


class Dinic:
    """Integer max-flow (level graph + blocking flow), exact on Python ints."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        # each stored edge: [to, capacity_left, index_of_reverse]
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                if e[1] > 0 and self.level[e[0]] < 0:
                    self.level[e[0]] = self.level[u] + 1
                    queue.append(e[0])
        return self.level[t] >= 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            it = [0] * self.n
            nodes = [s]
            edges: list[list[int]] = []  # path edges, parallel to nodes[1:]
            while nodes:
                u = nodes[-1]
                if u == t:
                    pushed = min(e[1] for e in edges)
                    flow += pushed
                    retreat = 0
                    for idx, e in enumerate(edges):
                        e[1] -= pushed
                        self.adj[e[0]][e[2]][1] += pushed
                        if e[1] == 0 and retreat == 0:
                            retreat = idx + 1
                    # back to the tail of the first saturated edge
                    del edges[retreat - 1 :]
                    del nodes[retreat:]
                    continue
                advanced = False
                adj_u = self.adj[u]
                while it[u] < len(adj_u):
                    e = adj_u[it[u]]
                    if e[1] > 0 and self.level[e[0]] == self.level[u] + 1:
                        nodes.append(e[0])
                        edges.append(e)
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    self.level[u] = -1
                    nodes.pop()
                    if edges:
                        edges.pop()
        return flow

    def reachable_from(self, s: int) -> set[int]:
        """Source side of the minimum cut, after max_flow has run."""
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                if e[1] > 0 and e[0] not in seen:
                    seen.add(e[0])
                    queue.append(e[0])
        return seen


def _denser_subgraph(g: Graph, num: int, den: int) -> tuple[int, ...] | None:
    """A vertex set with density strictly above num/den, or None."""
    m, n = g.m, g.n
    net = Dinic(m + n + 2)
    source, sink = 0, m + n + 1
    inf = m * max(den, 1) + 1
    for k, (u, v) in enumerate(g.edges):
        net.add_edge(source, 1 + k, den)
        net.add_edge(1 + k, 1 + m + u, inf)
        net.add_edge(1 + k, 1 + m + v, inf)
    for v in range(n):
        net.add_edge(1 + m + v, sink, num)
    flow = net.max_flow(source, sink)
    if flow >= m * den:
        return None
    side = net.reachable_from(source)
    return tuple(v for v in range(n) if (1 + m + v) in side)


def induced_edge_count(g: Graph, subset: Sequence[int]) -> int:
    inside = set(subset)
    return sum(1 for u, v in g.edges if u in inside and v in inside)


def max_density(g: Graph) -> DensityWitness:
    """Exact max over vertex subsets of induced-edges / subset-size."""
    if g.n == 0:
        raise ValueError("density of the empty graph is undefined")
    if g.m == 0:
        return DensityWitness(Fraction(0), (0,))
    n = g.n
    lo = Fraction(g.m, n)
    witness = tuple(range(n))
    hi = Fraction(min(g.max_degree(), n - 1), 2)
    gap = Fraction(1, n * n)
    while hi - lo >= gap:
        mid = (lo + hi) / 2
        found = _denser_subgraph(g, mid.numerator, mid.denominator)
        if found is None:
            hi = mid
        else:
            achieved = Fraction(induced_edge_count(g, found), len(found))
            if achieved <= mid:
                raise ProofObligationError(f"min cut found density {achieved} <= {mid}")
            lo = achieved
            witness = found
    return DensityWitness(lo, witness)


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


def mad(g: Graph) -> Fraction:
    """Maximum average degree: twice the maximum subgraph density."""
    return 2 * max_density(g).density
