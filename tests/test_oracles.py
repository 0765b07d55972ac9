"""Deeper cross-validation: the central solvers vs. from-scratch oracles."""

import random
from itertools import combinations, product

from atlab import (
    Graph,
    SolverOptions,
    at_exact,
    eulerian_tally_enumerate,
    find_at_orientation,
    is_at_orientation,
    orient,
    orientation_from_arcs,
)
from atlab.density import Dinic
from atlab.eulerian import diff_coefficient, frontier_order
from helpers import naive_tally, random_graph, random_orientation


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


def cycle_with_chords(rng, vertices, chords):
    """A directed cycle through `vertices` (at least 3) plus up to `chords`
    randomly directed chords: strongly connected whatever their directions."""
    vs = list(vertices)
    rng.shuffle(vs)
    arcs = {(vs[i - 1], vs[i]) for i in range(len(vs))}
    for u, v in rng.sample(list(combinations(vs, 2)), chords):
        if (u, v) not in arcs and (v, u) not in arcs:
            arcs.add((u, v))
    return arcs


def random_shaped_orientation(rng, shape):
    """A random orientation of one of four shapes: acyclic; strongly
    connected; strongly connected blocks joined by cross arcs that all point
    to later blocks; a strongly connected block beside a disjoint random
    orientation."""
    if shape == "acyclic":
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        rank = list(range(g.n))
        rng.shuffle(rank)
        arcs = {(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges}
        n = g.n
    elif shape == "one component":
        n = rng.randint(3, 7)
        arcs = cycle_with_chords(rng, range(n), rng.randint(0, 4))
    elif shape == "cross arcs":
        blocks = [range(3 * i, 3 * i + 3) for i in range(rng.randint(2, 3))]
        arcs = set()
        for block in blocks:
            arcs |= cycle_with_chords(rng, block, 0)
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(len(blocks)), 2))
            u, v = rng.choice(blocks[i]), rng.choice(blocks[j])
            arcs.add((u, v))
        n = 3 * len(blocks)
    else:  # disconnected
        k = rng.randint(3, 4)
        arcs = cycle_with_chords(rng, range(k), 1)
        rest = random_graph(rng, rng.randint(2, 5), 0.6)
        arcs |= {(k + t, k + h) for t, h in random_orientation(rng, rest).arcs}
        n = k + rest.n
    arcs = sorted(arcs)
    return orientation_from_arcs(Graph([str(i) for i in range(n)], arcs), arcs)


def mutual_reach_classes(d):
    """Vertex sets of size > 1 that reach each other, by transitive closure."""
    n = d.graph.n
    reach = [[u == v for v in range(n)] for u in range(n)]
    for t, h in d.arcs:
        reach[t][h] = True
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                for v in range(n):
                    reach[u][v] = reach[u][v] or reach[k][v]
    classes = {frozenset(v for v in range(n) if reach[u][v] and reach[v][u]) for u in range(n)}
    return {c for c in classes if len(c) > 1}


def test_component_factoring_matches_whole_orientation_oracle():
    rng = random.Random(3131)
    shapes = ("acyclic", "one component", "cross arcs", "disconnected")
    seen = {shape: 0 for shape in shapes}
    checked = 0
    while checked < 200:
        shape = shapes[checked % 4]
        d = random_shaped_orientation(rng, shape)
        if d.graph.m > 11:
            continue
        checked += 1
        parts = d.strong_components()
        classes = mutual_reach_classes(d)
        assert {frozenset(p.vertices) for p in parts} == classes, (shape, d.arcs)
        for p in parts:
            inside = sorted((t, h) for t, h in d.arcs if t in p.vertices and h in p.vertices)
            assert sorted((p.vertices[t], p.vertices[h]) for t, h in p.arcs) == inside
        seen[shape] += len(parts) > 1 if shape == "cross arcs" else len(parts) > 0
        even, odd = naive_tally(d)
        tally = eulerian_tally_enumerate(d)
        assert (tally.even_count, tally.odd_count) == (even, odd), (shape, d.arcs)
        assert diff_coefficient(d) == even - odd, (shape, d.arcs)
        assert diff_coefficient(d, frontier_order(d.graph)[::-1]) == even - odd
        dec = is_at_orientation(d)
        assert dec.diff == even - odd and dec.is_at == (even != odd)
    # the shapes did what they say: no acyclic one has a component, every
    # other one has one, and blocks joined by cross arcs have several
    assert seen == {"acyclic": 0, "one component": 50, "cross arcs": 50, "disconnected": 50}


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
