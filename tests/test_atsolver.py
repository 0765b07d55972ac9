import math
import random
import time
from itertools import combinations

import pytest

import atlab
from atlab import (
    DEFAULT_OPTIONS,
    CapacityError,
    Graph,
    ProofObligationError,
    SolverOptions,
    at_bipartite,
    at_bounds,
    at_exact,
    at_lower_bound,
    bipartition,
    bounded_outdegree_orientation,
    cartesian_product,
    chromatic_number,
    complete,
    complete_bipartite,
    corona,
    cycle,
    eulerian_tally_enumerate,
    find_at_orientation,
    hypercube,
    max_density,
    orientation_from_arcs,
    path,
    star,
    tree_from_pruefer,
)
from atlab.atsolver import (
    ATCertificate,
    _dsatur,
    _greedy_clique,
    acyclic_certificate,
    biconnected_blocks,
)
from atlab.documents import serialize_certificate
from atlab.errors import SearchTimeout
from atlab.eulerian import engine_diff
from atlab.theorems import check_theorem_1
from helpers import (
    chromatic_at_choosable,
    corpus,
    induced_subgraph,
    max_density_bruteforce,
    mycielski,
    naive_chromatic,
    random_bipartite_graph,
    random_graph,
)


# ---------------------------------------------------------------------------
# chromatic numbers
# ---------------------------------------------------------------------------


def test_chromatic_known_values():
    assert chromatic_number(hypercube(1)) == 2
    assert chromatic_number(hypercube(5)) == 2
    assert chromatic_number(cycle(7)) == 3
    assert chromatic_number(cycle(8)) == 2
    assert chromatic_number(complete(5)) == 5
    assert chromatic_number(path(1)) == 1
    assert chromatic_number(corona(cycle(3), cycle(4))) == 3
    assert chromatic_number(corona(cycle(4), cycle(3))) == 4


def test_chromatic_matches_naive_oracle():
    # the second cap is the largest block's size: a graph of several blocks
    # then exceeds it, so its chi comes from the block search
    rng = random.Random(4242)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.25, 0.45, 0.7)))
        chi = naive_chromatic(g, k_max=9)
        block_cap = max((len(b) for b in biconnected_blocks(g)), default=1)
        for cap in (DEFAULT_OPTIONS.chromatic_block_cap, block_cap):
            assert chromatic_number(g, SolverOptions(chromatic_block_cap=cap)) == chi
        assert _greedy_clique(g.adjacency) <= chi <= _dsatur(g.adjacency)
        if chi <= 2:  # DSATUR is exact on bipartite graphs (Brelaz)
            assert _dsatur(g.adjacency) == chi


def _glue(g, h):
    """g and h joined at one cut vertex, g's vertex 0 being h's vertex 0."""
    shift = g.n - 1
    edges = list(g.edges) + [(u and u + shift, v and v + shift) for u, v in h.edges]
    return Graph([str(i) for i in range(g.n + h.n - 1)], edges)


def test_chromatic_block_search_takes_the_max_over_distinct_blocks():
    # DSATUR uses 4 colors on h, whose chi is 3
    h = Graph(
        [str(i) for i in range(7)],
        [(0, 2), (0, 4), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6), (5, 6)],
    )
    assert _dsatur(h.adjacency) == 4 and naive_chromatic(h) == 3
    # blocks of one size but different chi; a block DSATUR over-colors
    # beside a block that already needs as many colors as the first has
    for a, b, chi in [(cycle(5), complete(5), 5), (cycle(3), h, 3)]:
        options = SolverOptions(chromatic_block_cap=max(a.n, b.n))
        for g in (_glue(a, b), _glue(b, a)):
            assert chromatic_number(g, options) == chi


def test_chromatic_of_coronas_and_products_follows_the_formulas():
    # Lemma 3.5 for coronas, and chi(G x H) = max(chi(G), chi(H)); coronas
    # also run at the largest block's size, where the m alike hub-plus-copy
    # blocks are searched once
    rng = random.Random(3535)
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(1, 5), 0.6)
        g2 = random_graph(rng, rng.randint(1, 5), 0.6)
        chi1, chi2 = chromatic_number(g1), chromatic_number(g2)
        predicted = chi1 if chi2 < chi1 else chi2 + 1
        block_cap = SolverOptions(chromatic_block_cap=max(g1.n, g2.n + 1))
        for options in (DEFAULT_OPTIONS, block_cap):
            assert chromatic_number(corona(g1, g2), options) == predicted
        assert chromatic_number(cartesian_product(g1, g2)) == max(chi1, chi2)


def test_chromatic_groetzsch_graph_is_searched_past_its_clique():
    g = mycielski(cycle(5))  # the Groetzsch graph: 11 vertices, triangle-free
    assert (g.n, g.m) == (11, 20)
    assert _greedy_clique(g.adjacency) == 2
    assert chromatic_number(g) == naive_chromatic(g) == 4


def test_blocks_decomposition():
    blocks = biconnected_blocks(corona(cycle(3), cycle(4)))
    assert sorted(len(b) for b in blocks) == [3, 5, 5, 5]
    assert biconnected_blocks(path(5)) == [(3, 4), (2, 3), (1, 2), (0, 1)] or len(
        biconnected_blocks(path(5))
    ) == 4
    assert len(biconnected_blocks(cycle(6))) == 1


def test_chromatic_block_budget():
    with pytest.raises(CapacityError):
        chromatic_number(cycle(9), SolverOptions(chromatic_block_cap=5))
    # bipartite blocks skip the budget entirely
    assert chromatic_number(hypercube(6), SolverOptions(chromatic_block_cap=5)) == 2


def test_chromatic_capacity_error_iff_a_non_bipartite_block_exceeds_the_cap():
    rng = random.Random(6464)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.3, 0.5)))
        cap = rng.randint(3, 10)
        over = any(
            len(b) > cap and bipartition(induced_subgraph(g, b)[0]) is None
            for b in biconnected_blocks(g)
        )
        options = SolverOptions(chromatic_block_cap=cap)
        if over:
            with pytest.raises(CapacityError):
                chromatic_number(g, options)
        else:
            assert chromatic_number(g, options) >= 1
    # a bipartite block over the cap raises nothing: Q3 has 8 vertices
    q3_corona_c3 = corona(hypercube(3), cycle(3))
    assert chromatic_number(q3_corona_c3, SolverOptions(chromatic_block_cap=4)) == 4


def test_time_budget_bounds_the_chromatic_search():
    m5 = mycielski(mycielski(cycle(5)))
    assert chromatic_number(m5) == 5
    m6 = mycielski(m5)  # 47 vertices, chi 6: proving 5 colors too few is slow
    with pytest.raises(SearchTimeout):
        chromatic_number(m6, deadline=time.monotonic() + 0.1)
    t0 = time.monotonic()
    res = at_exact(m6, SolverOptions(time_budget=0.5))
    assert time.monotonic() - t0 < 2.5
    assert (res.lo, res.hi, res.lower_bound_reason) == (7, 9, "density-pigeonhole")


# ---------------------------------------------------------------------------
# bounded outdegree orientations
# ---------------------------------------------------------------------------


def test_bounded_orientation_hypercube():
    d = bounded_outdegree_orientation(hypercube(4), 2)
    assert d is not None and d.outdegrees == tuple([2] * 16)


def test_bounded_orientation_infeasible():
    assert bounded_outdegree_orientation(cycle(3), 0) is None
    assert bounded_outdegree_orientation(complete(4), 1) is None


def test_bounded_orientation_tree_cap_one():
    t = tree_from_pruefer((0, 1, 2))
    d = bounded_outdegree_orientation(t, 1)
    assert d is not None and d.max_outdegree() <= 1


def test_bounded_orientation_iff_density():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        dens = max_density_bruteforce(g).density
        for cap in range(0, 4):
            d = bounded_outdegree_orientation(g, cap)
            if dens <= cap:
                assert d is not None and d.max_outdegree() <= cap
            else:
                assert d is None


def test_bounded_orientation_per_vertex_caps_is_hakimi():
    # outdeg(v) <= cap(v) is possible iff every vertex set S spans at most
    # sum_{v in S} cap(v) edges
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        caps = [rng.randint(0, 3) for _ in range(g.n)]
        if rng.random() < 0.5 and sum(caps) < g.m:
            for _ in range(g.m - sum(caps)):
                caps[rng.randrange(g.n)] += 1
        hakimi = all(
            sum(1 for u, v in g.edges if u in s and v in s) <= sum(caps[v] for v in s)
            for r in range(1, g.n + 1)
            for s in map(set, combinations(range(g.n), r))
        )
        d = bounded_outdegree_orientation(g, caps)
        assert (d is not None) == hakimi, (g.edges, caps)
        if d is not None:
            assert all(o <= c for o, c in zip(d.outdegrees, caps))
            if sum(caps) == g.m:
                assert list(d.outdegrees) == caps


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------


def test_lower_bound_values_and_reasons():
    lb, reason = at_lower_bound(hypercube(4))
    assert (lb, reason) == (3, "density-pigeonhole")
    lb, reason = at_lower_bound(corona(cycle(3), cycle(4)))
    assert (lb, reason) == (3, "chromatic")
    lb, _ = at_lower_bound(path(2))
    assert lb == 2


# ---------------------------------------------------------------------------
# bipartite closed form
# ---------------------------------------------------------------------------


def test_at_bipartite_hypercubes():
    for n in range(1, 11):
        res = at_bipartite(hypercube(n))
        assert res.value == (n + 1) // 2 + 1
        cert = res.certificate
        assert cert.outdegree_ok()
        if cert.diff_magnitude is not None:
            assert cert.diff_magnitude > 0


def test_at_bipartite_even_cycles_and_trees():
    for k in range(2, 6):
        res = at_bipartite(cycle(2 * k))
        assert res.value == 2
        assert res.certificate.diff_magnitude == 2  # the cyclic pair
    for seq in [(), (1, 1), (0, 1, 2)]:
        assert at_bipartite(tree_from_pruefer(seq)).value == 2


def density_certificate(g):
    """The bipartite certificate built from the exact density: the
    orientation at cap ceil(max density), its diff by the first engine within
    budget. The density comes from the brute-force oracle where it reaches
    (n <= 20), so path reversal is not pinned against itself there."""
    dens = max_density_bruteforce(g) if g.n <= 20 else max_density(g)
    level = math.ceil(dens.density) + 1
    d = bounded_outdegree_orientation(g, level - 1)
    method, diff = engine_diff(d, DEFAULT_OPTIONS)
    if method is None:
        return ATCertificate(level, d, None, "bipartite-closed-form")
    return ATCertificate(level, d, abs(diff), method)


def test_at_bipartite_pins_the_density_certificate():
    graphs = [hypercube(n) for n in range(2, 7)]
    trees = [(), (0,), (1, 1), (0, 1, 2), (3, 3, 3, 3)]
    graphs += [cartesian_product(hypercube(n), tree_from_pruefer(t)) for n in (1, 2, 3) for t in trees]
    graphs += [cartesian_product(hypercube(n), cycle(2 * k)) for n in (1, 2, 3) for k in (2, 3)]
    rng = random.Random(2504)
    graphs += [random_bipartite_graph(rng, 6, 20) for _ in range(40)]
    for g in graphs:
        expected = density_certificate(g)
        res = at_bipartite(g)
        assert (res.lo, res.hi) == (expected.level, expected.level)
        assert res.certificate.orientation.tails == expected.orientation.tails
        assert serialize_certificate(res.certificate) == serialize_certificate(expected)


def test_at_values_never_call_max_density(monkeypatch):
    def forbidden(g):
        raise AssertionError("max_density called on the AT path")

    for module in (atlab, atlab.density, atlab.atsolver, atlab.theorems):
        monkeypatch.setattr(module, "max_density", forbidden)
    assert at_exact(cycle(5)).value == 3
    assert at_exact(hypercube(3)).value == 3
    assert at_bipartite(cartesian_product(hypercube(3), path(3))).value == 4
    assert at_lower_bound(complete(5)) == (5, "chromatic")
    assert at_lower_bound(hypercube(4)) == (3, "density-pigeonhole")
    report = check_theorem_1(3, tree_from_pruefer((0, 1)))
    assert report.verdict == "pass"
    assert report.evidence.endswith("least max outdegree 3")


def test_density_terms_recount_the_vertex_set_witness(monkeypatch):
    # a cap of 2 on C4 with R = V claims 4 > 1 * 4 edges: false, so no
    # lower bound may rest on it
    g = cycle(4)
    false_witness = atlab.atsolver.UniformCap(2, bounded_outdegree_orientation(g, 2), (0, 1, 2, 3))
    monkeypatch.setattr(atlab.atsolver, "least_uniform_cap", lambda _g: false_witness)
    with pytest.raises(ProofObligationError):
        at_lower_bound(g)
    with pytest.raises(ProofObligationError):
        at_bipartite(g)


def test_at_bipartite_rejects_odd_cycles():
    with pytest.raises(ValueError):
        at_bipartite(cycle(5))


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------


def test_at_exact_small_values():
    assert at_exact(cycle(5)).value == 3
    assert at_exact(cycle(7)).value == 3
    assert at_exact(complete(4)).value == 4
    assert at_exact(complete(3)).value == 3
    assert at_exact(path(4)).value == 2
    assert at_exact(Graph(["v"], [])).value == 1


def test_level_exhaustion_is_real():
    # both outdegree-<=1 orientations of an odd cycle are the cyclic ones
    assert find_at_orientation(cycle(5), 1) is None
    c5 = cycle(5)
    for arcs in (
        [(i, (i + 1) % 5) for i in range(5)],
        [((i + 1) % 5, i) for i in range(5)],
    ):
        d = orientation_from_arcs(c5, arcs)
        assert eulerian_tally_enumerate(d).diff == 0
    # K4 at cap 2 exhausts: AT(K4) = 4
    assert find_at_orientation(complete(4), 2) is None
    found = find_at_orientation(cycle(4), 1)
    assert found is not None and eulerian_tally_enumerate(found).diff != 0


def test_at_exact_c3xc3():
    res = at_exact(cartesian_product(cycle(3), cycle(3)), SolverOptions(search_edge_cap=24))
    assert res.value == 4
    assert res.lower_bound_reason == "exhaustive-refutation"
    assert res.certificate.outdegree_ok()


def test_at_exact_matches_bipartite_closed_form():
    for name, g in corpus():
        if g.m > 14:
            continue
        from atlab import bipartition

        if bipartition(g) is None:
            continue
        closed = at_bipartite(g).value
        searched = at_exact(g, bipartite_shortcut=False).value
        assert closed == searched, name


def test_at_exact_bracket_over_budget():
    g = cartesian_product(cycle(3), cycle(4))  # 24 edges
    res = at_exact(g, SolverOptions(search_edge_cap=20))
    assert not res.is_exact
    assert res.lo == 3 and res.hi >= res.lo
    assert res.certificate is not None  # the acyclic fallback


def test_at_exact_time_budget_brackets():
    g = cartesian_product(cycle(3), cycle(3))
    for budget in (1e-9, 0):  # 0 leaves no time; it does not mean unlimited
        res = at_exact(g, SolverOptions(search_edge_cap=24, time_budget=budget))
        assert not res.is_exact, budget
        assert res.lo <= 4 <= res.hi


def test_lower_bound_never_exceeds_exact_and_certs_reverify():
    from atlab import verify_certificate

    for name, g in corpus():
        if g.m > 18:
            continue
        res = at_exact(g, SolverOptions(search_edge_cap=18))
        if not res.is_exact:
            continue
        lb, _ = at_lower_bound(g)
        assert lb <= res.value, name
        assert chromatic_number(g) <= res.value, name
        if res.certificate is not None:
            assert verify_certificate(res.certificate).accepted, name


def test_subgraph_monotonicity_spot_check():
    g = cartesian_product(cycle(3), cycle(3))
    sub, _ = induced_subgraph(g, range(6))
    opts = SolverOptions(search_edge_cap=24)
    assert at_exact(sub, opts).value <= at_exact(g, opts).value
    h = corona(cycle(3), path(2))
    sub2, _ = induced_subgraph(h, range(3))
    assert at_exact(sub2, opts).value <= at_exact(h, opts).value


def test_at_bounds_and_acyclic_certificate():
    cert = acyclic_certificate(cycle(5))
    assert cert.level == 3 and cert.diff_magnitude == 1
    assert eulerian_tally_enumerate(cert.orientation).diff == 1
    res = at_bounds(cycle(5))
    assert res.value == 3  # chi lower bound meets the degeneracy certificate
    res2 = at_bounds(complete_bipartite(3, 3))
    assert res2.lo <= 3 <= res2.hi


def test_search_is_deterministic():
    g = cartesian_product(cycle(3), cycle(3))
    first = at_exact(g, SolverOptions(search_edge_cap=24))
    second = at_exact(g, SolverOptions(search_edge_cap=24))
    assert first.value == second.value == 4
    assert first.certificate.orientation.tails == second.certificate.orientation.tails


def test_at_exact_c3xc5_refutes_level_3():
    g = cartesian_product(cycle(3), cycle(5))
    res = at_exact(g, SolverOptions(search_edge_cap=30))
    assert res.value == 4
    assert res.lower_bound_reason == "exhaustive-refutation"


def test_at_exact_k3xk3xk2_certified_by_coefficient():
    g = cartesian_product(cartesian_product(complete(3), complete(3)), complete(2))
    res = at_exact(g, SolverOptions(search_edge_cap=g.m))
    assert res.value == 4
    cert = res.certificate
    assert g.m > SolverOptions().enum_cap and cert.method == "polynomial"
    assert cert.outdegree_ok() and cert.diff_magnitude > 0


def test_at_exact_time_budget_holds_on_c5xc7():
    g = cartesian_product(cycle(5), cycle(7))
    t0 = time.monotonic()
    res = at_exact(g, SolverOptions(search_edge_cap=g.m, time_budget=0.2))
    assert time.monotonic() - t0 < 1.0
    assert res.lo <= 4 <= res.hi


# ---------------------------------------------------------------------------
# choosability
# ---------------------------------------------------------------------------


def test_chromatic_at_choosable():
    assert chromatic_at_choosable(cycle(4)) == (2, 2, True)
    assert chromatic_at_choosable(cycle(3)) == (3, 3, True)
    assert chromatic_at_choosable(hypercube(3)) == (2, 3, False)
