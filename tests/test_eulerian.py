import random

import pytest

from atlab import (
    CapacityError,
    Graph,
    Orientation,
    SolverOptions,
    acyclic_certificate,
    at_bipartite,
    corona_orientation,
    cycle,
    eulerian_diff_poly,
    eulerian_tally_enumerate,
    hypercube,
    induced_orientation,
    is_at_orientation,
    one_way_cut_check,
    orient,
    orientation_from_arcs,
    path,
)
from atlab.eulerian import diff_coefficient, frontier_order
from helpers import naive_tally, random_graph, random_orientation


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
    t = eulerian_tally_enumerate(cyclic(3))
    assert (t.even_count, t.odd_count, t.diff) == (1, 1, 0)
    t = eulerian_tally_enumerate(cyclic(4))
    assert (t.even_count, t.odd_count, t.diff) == (2, 0, 2)


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


def test_tally_cap():
    g = hypercube(4)  # 32 arcs
    d = orient(g, [u for u, _ in g.edges])
    with pytest.raises(CapacityError):
        eulerian_tally_enumerate(d)
    t = eulerian_tally_enumerate(d, SolverOptions(enum_cap=32))
    assert t.diff != 0  # bipartite base


def test_poly_engine_values():
    assert abs(eulerian_diff_poly(orient(path(2), [0]))) == 1
    assert eulerian_diff_poly(cyclic(3)) == 0
    assert abs(eulerian_diff_poly(cyclic(4))) == 2


def test_poly_budget_gate():
    g = hypercube(4)
    d = orient(g, [u for u, _ in g.edges])
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
    assert abs(diff_coefficient(d, frontier_order(d.graph)[::-1])) == 4


def test_reversal_preserves_magnitude():
    rng = random.Random(55)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        if g.m > 14:
            continue
        d = random_orientation(rng, g)
        assert abs(eulerian_tally_enumerate(d).diff) == abs(
            eulerian_tally_enumerate(d.reversed()).diff
        )


def test_empty_subdigraph_always_counted():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), 0.4)
        d = random_orientation(rng, g)
        assert eulerian_tally_enumerate(d).even_count >= 1


def test_is_at_orientation():
    assert not is_at_orientation(cyclic(3))
    dec = is_at_orientation(cyclic(4))
    assert dec and dec.method == "enumeration" and dec.diff == 2
    # any orientation of a bipartite graph is AT
    rng = random.Random(77)
    q3 = hypercube(3)
    for _ in range(10):
        assert is_at_orientation(random_orientation(rng, q3))
    # over the enumeration cap the polynomial engine takes over
    g = hypercube(4)
    d = orient(g, [u for u, _ in g.edges])
    dec = is_at_orientation(d, SolverOptions(enum_cap=16, poly_budget=50_000_000))
    assert dec.method == "polynomial" and dec.is_at


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


def test_induced_orientation():
    d = cyclic(4)
    sub = induced_orientation(d, [0, 1, 2])
    assert sub.graph.m == 2
    assert sub.arcs == ((0, 1), (1, 2))
