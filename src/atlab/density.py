"""Exact maximum subgraph density |E(H)|/|V(H)| with a witnessing vertex set,
and the orientation primitive it rests on.

Hakimi's theorem (1965) at multiplicity q: the q units of each edge can be
split between its two endpoints so that every vertex v carries at most
cap(v) units iff every vertex set S has q*e(S) <= cap(S). `reverse_paths`
decides this. It starts from a greedy split and moves units along paths from
an overloaded vertex to one with spare capacity. When no such path exists,
the set R its last search reached carries more than cap(R) units, all from
edges inside R, so q*e(R) > cap(R) and no split exists. With q = 1 a split
is an orientation: each edge leaves the endpoint that carries it.

So density(G) <= p/q iff uniform caps p are feasible at multiplicity q.
`max_density` runs a Dinkelbach (1967) ratio iteration on that test: start
at lambda = |E|/|V|, and while caps p at multiplicity q = lambda's numerator
and denominator are infeasible, move to the density of the reached set R,
which exceeds lambda. The densities of vertex sets are finitely many and
each round strictly raises lambda, so the iteration ends, at the maximum.

All arithmetic is integer or Fraction; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .errors import ProofObligationError
from .graphs import Graph


@dataclass(frozen=True)
class DensityWitness:
    """Exact maximum density together with a subset achieving it."""

    density: Fraction
    witness: tuple[int, ...]


def reverse_paths(
    n: int, edges: Sequence[tuple[int, int]], caps: Sequence[int], q: int
) -> tuple[Optional[list[int]], tuple[int, ...]]:
    """Split q units of every edge (u, v), u < v as in `Graph.edges`, between
    its endpoints with at most caps[v] units on each vertex v. Returns
    (split, ()) with split[2k] and split[2k + 1] the units of edge k on its
    first and second endpoint, or (None, R) when no split exists, with R the
    vertex set the last search reached: q*e(R) > sum_R caps[v].

    Each edge starts with all q units on the endpoint with more spare
    capacity (ties: the lower index). Then, while some vertex is overloaded,
    a breadth-first search from the lowest-index one follows edges whose
    units sit on the current vertex to a vertex with spare capacity, and the
    bottleneck amount moves along that path.
    """
    load = [0] * n
    # share is the split; share[a] is on vertex ends[a]
    share = [0] * (2 * len(edges))
    ends = None
    incident: list[list[int]] = [[] for _ in range(n)]
    a = 0
    for u, v in edges:
        incident[u].append(a)
        incident[v].append(a + 1)
        if load[u] - caps[u] <= load[v] - caps[v]:
            share[a] = q
            load[u] += q
        else:
            share[a + 1] = q
            load[v] += q
        a += 2
    while True:
        over = next((v for v in range(n) if load[v] > caps[v]), None)
        if over is None:
            return share, ()
        if ends is None:
            ends = list(chain.from_iterable(edges))
        via = [-1] * n  # the slot by which the search entered each vertex
        via[over] = -2
        queue = [over]
        target = -1
        for x in queue:
            if load[x] < caps[x]:
                target = x
                break
            for a in incident[x]:
                if share[a]:
                    b = a ^ 1
                    head = ends[b]
                    if via[head] == -1:
                        via[head] = b
                        queue.append(head)
        if target < 0:
            return None, tuple(sorted(queue))
        # at q = 1 every unit on the path is a whole edge, so the bottleneck is 1
        amount = 1
        if q > 1:
            amount = min(load[over] - caps[over], caps[target] - load[target])
            x = target
            while x != over:
                a = via[x] ^ 1
                if share[a] < amount:
                    amount = share[a]
                x = ends[a]
        x = target
        while x != over:
            a = via[x] ^ 1
            share[a] -= amount
            share[a ^ 1] += amount
            x = ends[a]
        load[over] -= amount
        load[target] += amount


def induced_edge_count(g: Graph, subset: Sequence[int]) -> int:
    inside = set(subset)
    return sum(1 for u, v in g.edges if u in inside and v in inside)


def max_density(g: Graph) -> DensityWitness:
    """Exact max over vertex subsets of induced-edges / subset-size."""
    if g.n == 0:
        raise ValueError("density of the empty graph is undefined")
    if g.m == 0:
        return DensityWitness(Fraction(0), (0,))
    density = Fraction(g.m, g.n)
    witness = tuple(range(g.n))
    # every vertex set S has e(S) <= max degree * |S| / 2
    if 2 * density == g.max_degree():
        return DensityWitness(density, witness)
    while True:
        p, q = density.numerator, density.denominator
        split, reached = reverse_paths(g.n, g.edges, [p] * g.n, q)
        if split is not None:
            return DensityWitness(density, witness)
        denser = Fraction(induced_edge_count(g, reached), len(reached))
        if denser <= density:
            raise ProofObligationError(f"path reversal reached density {denser} <= {density}")
        density, witness = denser, reached
