"""Deeper cross-validation: the central solvers vs. from-scratch oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from atlab import (
    Graph,
    SolverOptions,
    at_exact,
    eulerian_tally_enumerate,
    find_at_orientation,
    least_uniform_cap,
    orient,
    orientation_from_arcs,
)
from atlab.density import induced_edge_count, max_density, reverse_paths
from atlab.eulerian import diff_coefficient, engine_diff, frontier_order
from helpers import max_density_bruteforce, naive_tally, random_graph, random_orientation


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
        assert engine_diff(d)[1] == even - odd
    # the shapes did what they say: no acyclic one has a component, every
    # other one has one, and blocks joined by cross arcs have several
    assert seen == {"acyclic": 0, "one component": 50, "cross arcs": 50, "disconnected": 50}


def planted_dense_graph(rng, n):
    """A clique on a few vertices among sparse or isolated ones, so that
    ceil(|E|/|V|) is often below ceil(max density) and path reversal fails
    at the first caps it tries."""
    size = rng.randint(2, n)
    core = rng.sample(range(n), size)
    edges = {tuple(sorted(e)) for e in combinations(core, 2)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1}
    return Graph([str(i) for i in range(n)], sorted(edges))


def test_least_uniform_cap_matches_brute_force_density():
    rng = random.Random(1965)
    graphs = [Graph([], []), Graph(["a"], []), Graph(["a", "b", "c"], [])]
    for _ in range(120):
        graphs.append(random_graph(rng, rng.randint(0, 10), rng.choice((0.1, 0.3, 0.6, 0.9))))
    for _ in range(100):
        graphs.append(planted_dense_graph(rng, rng.randint(2, 10)))
    seen = {"empty": 0, "no edges": 0, "isolated vertex": 0, "first cap failed": 0}
    for g in graphs:
        least = least_uniform_cap(g)
        k, d, r = least.cap, least.orientation, least.witness
        assert d.graph is g and d.max_outdegree() <= k
        assert list(r) == sorted(set(r)) and all(0 <= v < g.n for v in r)
        if g.n == 0:
            assert (k, r) == (0, ())
            seen["empty"] += 1
            continue
        assert k == math.ceil(max_density_bruteforce(g).density), g.edges
        # pigeonhole: every orientation gives some vertex of R outdegree >= k
        assert induced_edge_count(g, r) > (k - 1) * len(r), (g.edges, k, r)
        seen["no edges"] += g.m == 0
        seen["isolated vertex"] += min(g.degrees()) == 0
        seen["first cap failed"] += k > -(-g.m // g.n)
    assert len(graphs) >= 200 and min(seen.values()) >= 1, seen


def test_reverse_paths_at_multiplicity_q_is_hakimi():
    # the q units of each edge split with at most cap(v) on each vertex v
    # iff every vertex set S has q*e(S) <= cap(S)
    rng = random.Random(1967)
    graphs = [random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.6))) for _ in range(60)]
    graphs += [planted_dense_graph(rng, rng.randint(2, 10)) for _ in range(60)]
    seen = {"feasible": 0, "infeasible": 0}
    for g in graphs:
        for q in (2, 3, 5):
            caps = [rng.randint(0, 3 * q) for _ in range(g.n)]
            hakimi = all(
                q * induced_edge_count(g, s) <= sum(caps[v] for v in s)
                for r in range(1, g.n + 1)
                for s in combinations(range(g.n), r)
            )
            split, reached = reverse_paths(g.n, g.edges, caps, q)
            assert (split is not None) == hakimi, (g.edges, caps, q)
            if split is not None:
                assert reached == ()
                assert all(split[2 * k] + split[2 * k + 1] == q for k in range(g.m))
                assert all(x >= 0 for x in split)
                load = [0] * g.n
                for k, (u, v) in enumerate(g.edges):
                    load[u] += split[2 * k]
                    load[v] += split[2 * k + 1]
                assert all(x <= c for x, c in zip(load, caps)), (g.edges, caps, q)
                seen["feasible"] += 1
            else:
                assert list(reached) == sorted(set(reached)) and reached
                assert q * induced_edge_count(g, reached) > sum(caps[v] for v in reached)
                seen["infeasible"] += 1
    assert min(seen.values()) >= 20, seen


def test_max_density_matches_brute_force_on_planted_dense_graphs():
    rng = random.Random(1968)
    seen = {"one round": 0, "more rounds": 0}
    for _ in range(150):
        g = planted_dense_graph(rng, rng.randint(2, 10))
        dw, brute = max_density(g), max_density_bruteforce(g)
        assert dw.density == brute.density, g.edges
        assert induced_edge_count(g, dw.witness) == dw.density * len(dw.witness)
        # |E|/|V| < max density: the first caps fail and a reached set leads on
        seen["more rounds" if Fraction(g.m, g.n) < dw.density else "one round"] += 1
    assert min(seen.values()) >= 10, seen


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
