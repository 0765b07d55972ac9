"""Deeper cross-validation: the central solvers vs. from-scratch oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from atlab import (
    Graph,
    at_exact,
    atsolver,
    bounded_outdegree_orientation,
    cartesian_product,
    cycle,
    eulerian_tally_enumerate,
    find_at_orientation,
    least_uniform_cap,
    orient,
    orientation_from_arcs,
)
from atlab.density import induced_edge_count, max_density, reverse_paths
from atlab.eulerian import diff_coefficient, engine_diff, frontier_order, monomial_search
from atlab.graphs import is_connected
from helpers import (
    is_gallai_tree,
    max_density_bruteforce,
    naive_tally,
    random_graph,
    random_orientation,
)


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
    checked = 0
    while checked < 30:
        g = random_graph(rng, rng.randint(1, 5), 0.6)
        if g.m > 8:
            continue
        expected = naive_at(g)
        assert at_exact(g).value == expected, (g.edges, expected)
        assert at_exact(g, bipartite_shortcut=False).value == expected
        checked += 1


def brute_at_within(g, caps):
    """Whether some orientation with outdeg(v) <= caps[v] for every v has
    diff != 0: every such orientation, built edge by edge and tallied on its
    own (no outdegree-class argument) until one is nonzero."""
    out, tails = [0] * g.n, []

    def extend(i):
        if i == g.m:
            return eulerian_tally_enumerate(orient(g, tails)).diff != 0
        for t in g.edges[i]:
            if out[t] < caps[t]:
                out[t] += 1
                tails.append(t)
                if extend(i + 1):
                    return True
                out[t] -= 1
                tails.pop()
        return False

    return extend(0)


def check_level_search(g, caps):
    found = find_at_orientation(g, caps)
    assert (found is not None) == brute_at_within(g, caps), (g.edges, caps)
    if found is not None:
        assert all(o <= c for o, c in zip(found.outdegrees, caps)), (g.edges, caps)
        even, odd = naive_tally(found)
        assert even != odd, (g.edges, caps, found.tails)
    return found


def test_level_search_matches_brute_force():
    rng = random.Random(2505)
    graphs = 0
    seen = {"found": 0, "none": 0, "pendant": 0, "cap over degree": 0}
    while graphs < 200:
        g = random_graph(rng, rng.randint(3, 7), rng.choice([0.4, 0.6, 0.8]))
        if g.m > 12:
            continue
        graphs += 1
        for cap in range(5):
            found = check_level_search(g, [cap] * g.n)
            assert find_at_orientation(g, cap) == found, (g.edges, cap)
        # one cap per vertex, up to its degree, and up to 2 above it
        caps = [rng.randint(0, d) for d in g.degrees()]
        seen["none" if check_level_search(g, caps) is None else "found"] += 1
        over = [rng.randint(0, d + 2) for d in g.degrees()]
        check_level_search(g, over)
        seen["pendant"] += 1 in g.degrees()
        seen["cap over degree"] += any(map(int.__gt__, over, g.degrees()))
    assert min(seen.values()) >= 50, seen


def naive_coefficients(g):
    """prod_{(u, v) in g.edges} (x_u - x_v) multiplied out factor by factor,
    as {exponent vector: nonzero coefficient}."""
    poly = {(0,) * g.n: 1}
    for u, v in g.edges:
        nxt = {}
        for e, c in poly.items():
            for w, sign in ((u, c), (v, -c)):
                k = e[:w] + (e[w] + 1,) + e[w + 1:]
                nxt[k] = nxt.get(k, 0) + sign
        poly = {e: c for e, c in nxt.items() if c}
    return poly


def test_degree_floors_never_change_the_level_search():
    # the search clips caps above a vertex's degree and floors each exponent
    # at its clipped cap minus the slack; neither removes a monomial, so caps
    # above the degree give the same hit, coefficient included, or the same
    # None as the clipped caps, and both match the multiplied-out product
    rng = random.Random(3535)
    seen = {"found": 0, "none": 0, "uniform": 0, "slack 0": 0, "floors": 0, "clipped": 0}
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        if g.m > 12:
            continue
        order = frontier_order(g.adjacency)
        poly = naive_coefficients(g)
        degrees = g.degrees()
        uniform = [[c] * g.n for c in range(g.max_degree() + 1) if -1 <= g.n * c - g.m <= 3]
        spread = []
        for slack in range(-1, 4):
            caps = [0] * g.n
            for _ in range(g.m + slack):
                caps[rng.randrange(g.n)] += 1
            spread.append(caps)
        for caps in uniform + spread:
            clipped = list(map(min, caps, degrees))
            over = [c + rng.randint(0, 2) if c == d else c for c, d in zip(clipped, degrees)]
            hit = monomial_search(g.edges, order, clipped)
            assert hit == monomial_search(g.edges, order, caps), (g.edges, caps)
            assert hit == monomial_search(g.edges, order, over), (g.edges, over)
            within = [e for e in poly if all(map(int.__le__, e, clipped))]
            if hit is None:
                assert not within, (g.edges, caps)
            else:
                e, coef = hit
                assert e in within and poly[e] == coef, (g.edges, caps, hit)
                even, odd = naive_tally(bounded_outdegree_orientation(g, e))
                assert abs(even - odd) == abs(coef), (g.edges, caps, hit)
            slack = sum(clipped) - g.m
            seen["none" if hit is None else "found"] += 1
            seen["uniform"] += caps in uniform
            seen["slack 0"] += slack == 0
            seen["floors"] += slack >= 0 and any(c > slack for c in clipped)
            seen["clipped"] += over != clipped
    assert min(seen.values()) >= 100, seen


def test_at_slack_zero_the_floors_are_the_caps(monkeypatch):
    # C3 x C3 is 4-regular, so cap 2 leaves no slack: level 3 is the one
    # coefficient of prod x_v^2, which is 0
    searched = []

    def spy(arcs, order, caps, deadline=None):
        searched.append(list(caps))
        return monomial_search(arcs, order, caps, deadline)

    monkeypatch.setattr(atsolver, "monomial_search", spy)
    g = cartesian_product(cycle(3), cycle(3))
    assert find_at_orientation(g, 2) is None
    assert searched == [[2] * 9]


def test_level_search_meets_the_degree_caps_off_gallai_trees():
    # Hladky, Kral' and Schauz: a connected graph has an AT-orientation with
    # outdeg(v) <= deg(v) - 1 for every v iff it is not a Gallai tree
    rng = random.Random(2010)
    seen = {"gallai tree": 0, "not": 0}
    while sum(seen.values()) < 1000:
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        if not is_connected(g):
            continue
        caps = [d - 1 for d in g.degrees()]
        found = find_at_orientation(g, caps)
        assert (found is None) == is_gallai_tree(g), g.edges
        seen["gallai tree" if found is None else "not"] += 1
    assert min(seen.values()) >= 300, seen


def test_level_search_meets_the_degree_caps_off_gallai_trees_exhaustively():
    # the same theorem on every labelled connected graph on 2 to 5 vertices
    # (1 + 4 + 38 + 728 = 771 graphs); 6 vertices (26,704 labelled graphs)
    # waits for an enumerator that works up to isomorphism
    checked = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for chosen in product((False, True), repeat=len(pairs)):
            g = Graph([str(i) for i in range(n)], [e for e, c in zip(pairs, chosen) if c])
            if not is_connected(g):
                continue
            found = find_at_orientation(g, [d - 1 for d in g.degrees()])
            assert (found is None) == is_gallai_tree(g), g.edges
            checked += 1
    assert checked == 771


def test_both_cap_primitives_refuse_a_vector_of_the_wrong_length():
    g = random_graph(random.Random(5), 4, 0.8)
    for caps in ([1] * 3, [1] * 5, []):
        for primitive in (find_at_orientation, bounded_outdegree_orientation):
            with pytest.raises(ValueError, match="one cap per vertex"):
                primitive(g, caps)


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
        assert diff_coefficient(d, frontier_order(d.graph.adjacency)[::-1]) == even - odd
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
            split, reached = reverse_paths(g.edges, caps, q)
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
