"""at_exact on every labelled graph on 6 vertices, against facts it does not use.

The census takes all 2^15 = 32,768 graphs on the vertices 0..5, one per
subset of the 15 vertex pairs, and solves each with the default options.
Every answer must be exact and must agree with:

  * monotonicity: AT(G - e) <= AT(G) for every edge e. The graph
    polynomial of G is that of G - e times (x_u - x_v), so a nonzero
    coefficient of x^d in it is a sum of products p_a q_b with a + b = d,
    one of which has p_a != 0: G - e has a nonzero monomial x^a with a <= d;
  * chi(G) <= AT(G) <= degeneracy(G) + 1, with a proper AT(G)-coloring
    found by brute force (helpers.naive_colorable) and the degeneracy
    peeled here;
  * the Brooks-type bound AT(G) <= Delta(G) on every connected graph with
    Delta >= 3 that is not complete (Hladky, Kral' and Schauz, "Brooks'
    theorem via the Alon-Tarsi theorem", Discrete Math. 310, 2010).

Violations are collected and reported together. About 4 s on 2 CPUs, most
of it in at_exact.
"""

from itertools import combinations

from atlab import Graph, at_exact
from atlab.graphs import is_connected

from helpers import naive_colorable

N = 6
PAIRS = list(combinations(range(N), 2))


def _degeneracy(g: Graph) -> int:
    # repeatedly remove a vertex of least degree; the largest degree seen
    left = set(range(g.n))
    deg = list(g.degrees())
    worst = 0
    while left:
        v = min(left, key=deg.__getitem__)
        worst = max(worst, deg[v])
        left.remove(v)
        for w in g.adjacency[v]:
            deg[w] -= 1
    return worst


def test_every_graph_on_6_vertices():
    labels = [str(i) for i in range(N)]
    graphs = [Graph(labels, [p for i, p in enumerate(PAIRS) if mask >> i & 1])
              for mask in range(1 << len(PAIRS))]
    results = [at_exact(g) for g in graphs]
    brackets = [(g.edges, r.lo, r.hi) for g, r in zip(graphs, results) if not r.is_exact]
    assert not brackets, brackets[:5]
    at = [r.value for r in results]
    found = []
    brooks = 0
    for mask, (g, value) in enumerate(zip(graphs, at)):
        found += [("monotone", g.edges, PAIRS[i]) for i in range(len(PAIRS))
                  if mask >> i & 1 and at[mask ^ 1 << i] > value]
        if not naive_colorable(g, value):
            found.append(("chi", g.edges, value))
        if value > _degeneracy(g) + 1:
            found.append(("degeneracy", g.edges, value))
        delta = g.max_degree()
        if delta >= 3 and g.m < len(PAIRS) and is_connected(g):
            brooks += 1
            if value > delta:
                found.append(("brooks", g.edges, value))
    assert not found, found[:5]
    # connected graphs on 6 labelled vertices (26,704) less those with
    # Delta <= 2 (360 paths and 60 cycles) and K6
    assert brooks == 26_283
