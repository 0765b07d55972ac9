"""Deeper cross-validation: the central solvers vs. from-scratch oracles."""

import random
from itertools import product

from atlab import (
    SolverOptions,
    at_exact,
    eulerian_tally_enumerate,
    find_at_orientation,
    orient,
)
from atlab.density import Dinic
from helpers import naive_tally, random_graph


def naive_at(g, k_max=6):
    """AT straight from the definition: smallest k admitting an orientation
    with max outdegree k-1 and unequal even/odd Eulerian counts."""
    m = g.m
    for k in range(1, k_max + 1):
        for dirs in product((0, 1), repeat=m):
            tails = [e[b] for e, b in zip(g.edges, dirs)]
            d = orient(g, tails)
            if d.max_outdegree() > k - 1:
                continue
            even, odd = naive_tally(d)
            if even != odd:
                return k
    raise AssertionError("AT above k_max")


def test_at_exact_matches_naive_definition():
    rng = random.Random(616)
    opts = SolverOptions(search_edge_cap=10)
    checked = 0
    while checked < 30:
        g = random_graph(rng, rng.randint(1, 5), 0.6)
        if g.m > 8:
            continue
        expected = naive_at(g)
        assert at_exact(g, opts).value == expected, (g.edges, expected)
        assert at_exact(g, opts, bipartite_shortcut=False).value == expected
        checked += 1


def brute_min_maxout(g):
    """Least max outdegree of an orientation with diff != 0: every
    orientation, in order of max outdegree, tallied on its own (no
    outdegree-class argument)."""
    scored = []
    for dirs in product((0, 1), repeat=g.m):
        tails = [e[b] for e, b in zip(g.edges, dirs)]
        out = [0] * g.n
        for t in tails:
            out[t] += 1
        scored.append((max(out, default=0), tails))
    scored.sort(key=lambda item: item[0])
    for maxout, tails in scored:
        if eulerian_tally_enumerate(orient(g, tails)).diff != 0:
            return maxout
    raise AssertionError("the acyclic orientations have diff 1")


def test_level_search_matches_brute_force():
    rng = random.Random(2505)
    graphs = 0
    while graphs < 200:
        g = random_graph(rng, rng.randint(3, 7), rng.choice([0.4, 0.6, 0.8]))
        if g.m > 12:
            continue
        graphs += 1
        least = brute_min_maxout(g)
        for cap in range(5):
            found = find_at_orientation(g, cap)
            assert (found is not None) == (cap >= least), (g.edges, cap)
            if found is not None:
                assert found.max_outdegree() <= cap
                even, odd = naive_tally(found)
                assert even != odd, (g.edges, cap, found.tails)


def brute_min_cut(n, edges, s, t):
    """Min s-t cut by scanning all source-side subsets."""
    best = None
    for mask in range(1 << n):
        if not (mask >> s) & 1 or (mask >> t) & 1:
            continue
        cut = sum(cap for u, v, cap in edges if (mask >> u) & 1 and not (mask >> v) & 1)
        if best is None or cut < best:
            best = cut
    return best


def test_dinic_matches_brute_min_cut():
    rng = random.Random(717)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    edges.append((u, v, rng.randint(0, 8)))
        s, t = 0, n - 1
        net = Dinic(n)
        for u, v, cap in edges:
            net.add_edge(u, v, cap)
        flow = net.max_flow(s, t)
        assert flow == brute_min_cut(n, edges, s, t)
        # the reachable set is a minimum cut witness
        side = net.reachable_from(s)
        assert s in side and t not in side
        cut = sum(cap for u, v, cap in edges if u in side and v not in side)
        assert cut == flow


def test_acyclic_certificate_diff_is_one():
    from atlab.atsolver import acyclic_certificate

    rng = random.Random(818)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        cert = acyclic_certificate(g)
        even, odd = naive_tally(cert.orientation)
        assert (even, odd) == (1, 0)
        assert cert.level == cert.orientation.max_outdegree() + 1


def test_blocks_partition_edges():
    from atlab.atsolver import biconnected_blocks

    rng = random.Random(919)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10), 0.35)
        blocks = [set(b) for b in biconnected_blocks(g)]
        for u, v in g.edges:
            homes = [b for b in blocks if u in b and v in b]
            assert len(homes) == 1, (g.edges, (u, v), blocks)
