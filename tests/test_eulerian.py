import random

import pytest

from atlab import (
    CapacityError,
    Graph,
    Orientation,
    SolverOptions,
    acyclic_certificate,
    at_bipartite,
    at_exact,
    cartesian_product,
    corona_orientation,
    cycle,
    eulerian_diff_poly,
    eulerian_tally_enumerate,
    hypercube,
    one_way_cut_check,
    orient,
    orientation_from_arcs,
    path,
)
from atlab.eulerian import (
    diff_coefficient,
    engine_diff,
    frontier_order,
    poly_state_bound,
    tally_arc_bound,
    tally_arcs,
)
from helpers import (
    euler_circuit_orientation,
    induced_orientation,
    naive_tally,
    random_graph,
    random_orientation,
    random_regular_graph,
)


def cyclic(n):
    c = cycle(n)
    return orientation_from_arcs(c, [(i, (i + 1) % n) for i in range(n)])


def test_orient_validation():
    k2 = path(2)
    d = orient(k2, [0])
    assert d.outdegrees == (1, 0)
    with pytest.raises(ValueError):
        orient(k2, [2])
    with pytest.raises(ValueError):
        orient(k2, [])
    c4 = cycle(4)
    with pytest.raises(ValueError):
        orientation_from_arcs(c4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1)])
    with pytest.raises(ValueError):
        orientation_from_arcs(c4, [(0, 1), (1, 2), (2, 3)])


def test_orientation_profiles():
    d = cyclic(4)
    assert d.outdegrees == (1, 1, 1, 1)
    assert sum(d.outdegrees) == d.graph.m
    # every edge at vertex 0 leaves it
    q2 = hypercube(2)
    d2 = orient(q2, [0 if 0 in e else e[0] for e in q2.edges])
    assert d2.outdegrees[0] == 2


def test_tally_frozen_values():
    # single arc: only the empty subdigraph
    t = eulerian_tally_enumerate(orient(path(2), [0]))
    assert (t.even_count, t.odd_count, t.diff) == (1, 0, 1)
    # a directed cycle: the empty subdigraph and the whole cycle; a 2-cycle
    # orients no simple graph, so it goes to the kernel as a raw arc list
    assert tally_arcs(2, [(0, 1), (1, 0)]) == (2, 0)
    for n in range(3, 13):
        t = eulerian_tally_enumerate(cyclic(n))
        assert (t.even_count, t.odd_count, t.diff) == ((1, 1, 0) if n % 2 else (2, 0, 2))


def test_tally_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        if g.m > 12:
            continue
        d = random_orientation(rng, g)
        assert naive_tally(d) == (
            eulerian_tally_enumerate(d).even_count,
            eulerian_tally_enumerate(d).odd_count,
        )


def test_tally_of_large_components():
    # single components too large for naive_tally: the 24 arcs of the C3 x C4
    # level certificate, and Euler-circuit orientations of seeded random
    # 4-regular graphs on 6..12 vertices (2n arcs); the counts are pinned
    c3c4 = cartesian_product(cycle(3), cycle(4))
    cases = [(at_exact(c3c4, SolverOptions(search_edge_cap=c3c4.m)).certificate.orientation,
              (292, 256))]
    rng = random.Random(404)
    for n, counts in [(6, (22, 16)), (7, (30, 30)), (8, (50, 44)), (9, (80, 80)),
                      (10, (116, 116)), (11, (188, 182)), (12, (266, 278))]:
        cases.append((euler_circuit_orientation(random_regular_graph(rng, n, 4)), counts))
    for d, counts in cases:
        assert [len(part.arcs) for part in d.strong_components()] == [2 * d.graph.n]
        t = eulerian_tally_enumerate(d)
        assert (t.even_count, t.odd_count) == counts
        assert t.diff == diff_coefficient(d)


def strongly_connected_q4():
    d = euler_circuit_orientation(hypercube(4))
    assert [len(part.arcs) for part in d.strong_components()] == [32]
    return d


def test_tally_cap():
    d = strongly_connected_q4()  # one component of 32 arcs
    with pytest.raises(CapacityError):
        eulerian_tally_enumerate(d)
    t = eulerian_tally_enumerate(d, SolverOptions(enum_cap=32))
    assert t.diff != 0  # bipartite base


def test_poly_engine_values():
    assert abs(eulerian_diff_poly(orient(path(2), [0]))) == 1
    assert eulerian_diff_poly(cyclic(3)) == 0
    assert abs(eulerian_diff_poly(cyclic(4))) == 2


def test_poly_budget_gate():
    d = strongly_connected_q4()
    with pytest.raises(CapacityError):
        eulerian_diff_poly(d, SolverOptions(poly_budget=10))


def test_engines_agree_on_magnitude():
    rng = random.Random(2024)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8), 0.45)
        if g.m > 16:
            continue
        d = random_orientation(rng, g)
        tally = eulerian_tally_enumerate(d)
        coef = eulerian_diff_poly(d)
        assert abs(coef) == abs(tally.diff)


def test_coefficient_is_the_signed_diff_in_any_vertex_order():
    rng = random.Random(4096)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        if g.m > 12:
            continue
        d = random_orientation(rng, g)
        even, odd = naive_tally(d)
        order = frontier_order(g)
        shuffled = list(order)
        rng.shuffle(shuffled)
        for o in (order, order[::-1], shuffled):
            assert diff_coefficient(d, o) == even - odd


def test_coefficient_of_q3_corona_c3_certificate():
    # the recipe orientation factors across its one-way cut:
    # |diff| = |diff(Q3 part)| * |diff(C3 part)|^8 = 4 * 1
    q3, c3 = hypercube(3), cycle(3)
    d1 = at_bipartite(q3).certificate.orientation
    d2 = acyclic_certificate(c3).orientation
    d, _ = corona_orientation(q3, d1, c3, d2)
    assert abs(eulerian_tally_enumerate(d1).diff) == 4
    assert abs(eulerian_diff_poly(d, SolverOptions(poly_budget=10**15))) == 4
    # its components are two directed 4-cycles, so the default budget admits it
    assert poly_state_bound(d) == 2**4 and abs(eulerian_diff_poly(d)) == 4
    assert abs(diff_coefficient(d, frontier_order(d.graph)[::-1])) == 4


def test_reversal_preserves_magnitude():
    rng = random.Random(55)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        if g.m > 14:
            continue
        d = random_orientation(rng, g)
        flipped = orient(g, [v if t == u else u for (u, v), t in zip(g.edges, d.tails)])
        assert abs(eulerian_tally_enumerate(d).diff) == abs(
            eulerian_tally_enumerate(flipped).diff
        )


def test_empty_subdigraph_always_counted():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.4)
        d = random_orientation(rng, g)
        assert eulerian_tally_enumerate(d).even_count >= 1


def test_is_at_orientation():
    assert engine_diff(cyclic(3)) == ("enumeration", 0)
    assert engine_diff(cyclic(4)) == ("enumeration", 2)
    # any orientation of a bipartite graph is AT
    rng = random.Random(77)
    q3 = hypercube(3)
    for _ in range(10):
        assert engine_diff(random_orientation(rng, q3))[1] != 0
    # over the enumeration cap the polynomial engine takes over
    d = strongly_connected_q4()
    method, diff = engine_diff(d, SolverOptions(enum_cap=16, poly_budget=50_000_000))
    assert method == "polynomial" and diff != 0


def test_one_way_cut_two_disjoint_arcs():
    g = Graph(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    d = orient(g, [0, 2])
    rep = one_way_cut_check(d, [0, 1], [2, 3])
    assert rep.one_way and rep.cross_count == 0
    assert rep.diff_whole == 1 and rep.diff_left == 1 and rep.diff_right == 1
    assert rep.product_ok


def test_one_way_cut_c4_plus_arc():
    g = Graph([str(i) for i in range(5)], [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    d = orientation_from_arcs(g, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    rep = one_way_cut_check(d, [0, 1, 2, 3], [4])
    assert rep.one_way and rep.diff_whole == 2 == rep.diff_left * rep.diff_right
    assert rep.product_ok
    # the reversed cross arc breaks one-wayness
    d2 = orientation_from_arcs(g, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)])
    rep2 = one_way_cut_check(d2, [0, 1, 2, 3], [4])
    assert not rep2.one_way and rep2.backward_arcs == ((4, 0),)


def test_one_way_cut_rejects_bad_split():
    d = cyclic(3)
    with pytest.raises(ValueError):
        one_way_cut_check(d, [0], [1])
    with pytest.raises(ValueError):
        one_way_cut_check(d, [0, 1], [1, 2])


def test_one_way_cut_matches_induced_reference():
    # The reference tallies each side's induced orientation, and d whole,
    # when its largest component fits enum_cap, and reports None otherwise.
    # First two directed cycles on the left at cap 3: the 4-cycle, over the
    # cap, is found before and after the 3-cycle that fits.
    for sizes in ((4, 3), (3, 4)):
        arcs, n = [], 0
        for k in sizes:
            arcs += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        arcs.append((0, n))
        g = Graph([str(v) for v in range(n + 1)], [tuple(sorted(a)) for a in arcs])
        rep = one_way_cut_check(orientation_from_arcs(g, arcs), range(n), [n],
                                SolverOptions(enum_cap=3))
        assert (rep.diff_left, rep.diff_right, rep.diff_whole) == (None, 1, None)
    # Then seeded splits whose crossing arcs all leave the left side, at caps
    # small enough that a side often holds a component over enum_cap.
    rng = random.Random(808)
    mixed = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.4, 0.7]))
        left = [v for v in range(n) if rng.random() < 0.5]
        right = [v for v in range(n) if v not in left]
        tails = [
            (u if u in left else v) if (u in left) != (v in left) else (u, v)[rng.randint(0, 1)]
            for u, v in g.edges
        ]
        d = orient(g, tails)
        opts = SolverOptions(enum_cap=rng.choice([0, 2, 3, 4, 6, 9]))

        def reference(sub):
            if tally_arc_bound(sub) > opts.enum_cap:
                return None
            return eulerian_tally_enumerate(sub, opts).diff

        rep = one_way_cut_check(d, left, right, opts)
        assert rep.one_way
        expected = (
            reference(induced_orientation(d, left)),
            reference(induced_orientation(d, right)),
            reference(d),
        )
        assert (rep.diff_left, rep.diff_right, rep.diff_whole) == expected
        mixed += (rep.diff_left is None) != (rep.diff_right is None)
    assert mixed >= 10


def test_induced_orientation():
    d = cyclic(4)
    sub = induced_orientation(d, [0, 1, 2])
    assert sub.graph.m == 2
    assert sub.arcs == ((0, 1), (1, 2))
