import math
import random
import time
from itertools import combinations

import pytest

import atlab
from atlab import (
    CapacityError,
    Graph,
    ProofObligationError,
    SolverOptions,
    at_bipartite,
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
    bracket,
    least_uniform_cap,
)
from atlab.density import induced_edge_count
from atlab.documents import serialize_certificate
from atlab.errors import SearchTimeout
from atlab.eulerian import engine_diff
from atlab.graphs import two_coloring
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
from test_golden_at_exact import golden_graphs


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


def test_chromatic_matches_naive_oracle(monkeypatch):
    # the second cap is the largest block's size: a graph of several blocks
    # then exceeds it, so its chi comes from the block search; at cap 3 a
    # graph with a larger non-bipartite block raises instead. Coronas add
    # many alike blocks that DSATUR settles beside a hub block.
    default_cap = atlab.atsolver.CHROMATIC_BLOCK_CAP
    rng = random.Random(4242)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice((0.25, 0.45, 0.7)))
              for _ in range(300)]
    graphs += [corona(random_graph(rng, rng.randint(1, 4), 0.6),
                      random_graph(rng, rng.randint(1, 5), 0.6)) for _ in range(80)]
    for g in graphs:
        chi = naive_chromatic(g, k_max=9)
        blocks = biconnected_blocks(g)
        block_cap = max((len(b) for b in blocks), default=1)
        odd_block = max((len(b) for b in blocks
                         if bipartition(induced_subgraph(g, b)[0]) is None), default=0)
        for cap in (default_cap, block_cap, 3):
            monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", cap)
            if odd_block > cap:
                with pytest.raises(CapacityError):
                    chromatic_number(g)
            else:
                assert chromatic_number(g) == chi
        assert _greedy_clique(g.adjacency) <= chi <= _dsatur(g.adjacency)
        if chi <= 2:  # DSATUR is exact on bipartite graphs (Brelaz)
            assert _dsatur(g.adjacency) == chi


def _glue(g, h):
    """g and h joined at one cut vertex, g's vertex 0 being h's vertex 0."""
    shift = g.n - 1
    edges = list(g.edges) + [(u and u + shift, v and v + shift) for u, v in h.edges]
    return Graph([str(i) for i in range(g.n + h.n - 1)], edges)


def test_chromatic_block_search_takes_the_max_over_distinct_blocks(monkeypatch):
    # DSATUR uses 4 colors on h, whose chi is 3
    h = Graph(
        [str(i) for i in range(7)],
        [(0, 2), (0, 4), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6), (5, 6)],
    )
    assert _dsatur(h.adjacency) == 4 and naive_chromatic(h) == 3
    # blocks of one size but different chi; a block DSATUR over-colors
    # beside a block that already needs as many colors as the first has
    for a, b, chi in [(cycle(5), complete(5), 5), (cycle(3), h, 3)]:
        monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", max(a.n, b.n))
        for g in (_glue(a, b), _glue(b, a)):
            assert chromatic_number(g) == chi


def test_chromatic_of_coronas_and_products_follows_the_formulas(monkeypatch):
    # Lemma 3.5 for coronas, and chi(G x H) = max(chi(G), chi(H)); coronas
    # also run at the largest block's size, where the m alike hub-plus-copy
    # blocks are searched once
    rng = random.Random(3535)
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(1, 5), 0.6)
        g2 = random_graph(rng, rng.randint(1, 5), 0.6)
        chi1, chi2 = chromatic_number(g1), chromatic_number(g2)
        predicted = chi1 if chi2 < chi1 else chi2 + 1
        assert chromatic_number(corona(g1, g2)) == predicted
        with monkeypatch.context() as block_cap:
            block_cap.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", max(g1.n, g2.n + 1))
            assert chromatic_number(corona(g1, g2)) == predicted
        assert chromatic_number(cartesian_product(g1, g2)) == max(chi1, chi2)


def test_chromatic_calls_the_clique_only_above_three_colors(monkeypatch):
    # a non-bipartite graph needs 3 colors, so a DSATUR count of 3 is chi
    # without the clique, on the whole graph and on each corona block
    calls = []

    def counted(adj):
        calls.append(len(adj))
        return _greedy_clique(adj)

    monkeypatch.setattr(atlab.atsolver, "_greedy_clique", counted)
    for g, chi, clique_calls in [
        (cycle(7), 3, 0),
        (corona(cycle(3), cycle(4)), 3, 0),
        (complete(5), 5, 1),
    ]:
        calls.clear()
        assert chromatic_number(g) == chi
        assert len(calls) == clique_calls, g
    # over the cap the whole graph goes to the block loop: the triangle and
    # the alike hub-plus-C4 blocks each settle at DSATUR's 3
    calls.clear()
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 5)
    assert chromatic_number(corona(cycle(3), cycle(4))) == 3
    assert calls == []


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


def test_chromatic_block_budget(monkeypatch):
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 5)
    with pytest.raises(CapacityError):
        chromatic_number(cycle(9))
    # bipartite blocks skip the budget entirely
    assert chromatic_number(hypercube(6)) == 2


def test_chromatic_capacity_error_iff_a_non_bipartite_block_exceeds_the_cap(monkeypatch):
    rng = random.Random(6464)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 14), rng.choice((0.15, 0.3, 0.5)))
        cap = rng.randint(3, 10)
        over = any(
            len(b) > cap and bipartition(induced_subgraph(g, b)[0]) is None
            for b in biconnected_blocks(g)
        )
        monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", cap)
        if over:
            with pytest.raises(CapacityError):
                chromatic_number(g)
        else:
            assert chromatic_number(g) >= 1
    # a bipartite block over the cap raises nothing: Q3 has 8 vertices
    q3_corona_c3 = corona(hypercube(3), cycle(3))
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 4)
    assert chromatic_number(q3_corona_c3) == 4


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
    # every term with its value, chromatic first; bracket picks the winner
    for g, terms, reason in [
        (hypercube(4), [(2, "chromatic"), (3, "density-pigeonhole")], "density-pigeonhole"),
        (corona(cycle(3), cycle(4)), [(3, "chromatic"), (3, "density-pigeonhole")], "chromatic"),
        (path(2), [(2, "chromatic"), (2, "density-pigeonhole")], "chromatic"),
    ]:
        assert at_lower_bound(g) == terms
        res = bracket(terms, acyclic_certificate(g))
        assert (res.lo, res.lower_bound_reason) == (max(v for v, _ in terms), reason)


def test_results_carry_their_terms(monkeypatch):
    # lo and its reason are the first greatest term, no term passes the
    # certificate level, and a bipartite result carries chi after its
    # density. A "chromatic" term is chi, at any CHROMATIC_BLOCK_CAP or time
    # budget; where chi is not computed the term is "odd-cycle", 3 on a
    # graph that is not bipartite
    rng = random.Random(2110)
    graphs = [g for _, g in golden_graphs()]
    graphs += [random_graph(rng, rng.randint(1, 8), rng.choice((0.0, 0.3, 0.6)))
               for _ in range(150)]
    kinds = set()
    for g in graphs:
        chi = naive_chromatic(g, k_max=9)
        with monkeypatch.context() as block_cap:
            block_cap.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", g.n)
            assert chromatic_number(g) == chi
        options = SolverOptions(search_edge_cap=g.m)
        results = [at_exact(g, options), at_exact(g, options, bipartite_shortcut=False),
                   at_exact(g, options.with_(time_budget=0))]
        firsts = [at_lower_bound(g)[0]]
        with monkeypatch.context() as tight:
            tight.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 3)
            results.append(at_exact(g, options))
            firsts.append(at_lower_bound(g)[0])
        for res in results:
            top = max(value for value, _ in res.terms)
            assert (res.lo, res.lower_bound_reason) == next(
                t for t in res.terms if t[0] == top), g.edges
            assert res.hi == res.certificate.level and top <= res.hi
        for term in firsts + [t for res in results for t in res.terms]:
            if term[1] == "chromatic":
                assert term[0] == chi, g.edges
            elif term[1] == "odd-cycle":
                assert term[0] == 3 and bipartition(g) is None, g.edges
            kinds.add(term[1])
        for res in results:
            assert sum(why in ("chromatic", "odd-cycle") for _, why in res.terms) == 1
        if bipartition(g) is not None:
            res = at_bipartite(g)
            assert res.terms == ((res.hi, "density-pigeonhole"), (2 if g.m else 1, "chromatic"))
            assert results[0] == res
    assert {"chromatic", "odd-cycle"} <= kinds


def test_bracket_keeps_the_first_of_tied_terms():
    cert = acyclic_certificate(cycle(5))  # level 3
    for terms, reason in [
        ([(3, "chromatic"), (3, "density-pigeonhole")], "chromatic"),
        ([(3, "density-pigeonhole"), (3, "chromatic")], "density-pigeonhole"),
        ([(2, "subgraph"), (3, "chromatic"), (3, "subgraph")], "chromatic"),
    ]:
        res = bracket(terms, cert)
        assert (res.lo, res.hi, res.lower_bound_reason) == (3, 3, reason)
        assert res.certificate is cert


def test_bracket_error_names_the_term_above_the_level():
    cert = acyclic_certificate(cycle(5))  # level 3
    with pytest.raises(ProofObligationError, match="exhaustive-refutation lower bound 4"):
        bracket([(3, "chromatic"), (2, "density-pigeonhole"),
                 (4, "exhaustive-refutation")], cert)
    with pytest.raises(ProofObligationError, match="subgraph lower bound 5"):
        bracket([(5, "subgraph"), (4, "chromatic")], cert)


# ---------------------------------------------------------------------------
# bipartite closed form
# ---------------------------------------------------------------------------


def test_at_bipartite_hypercubes():
    for n in range(1, 11):
        res = at_bipartite(hypercube(n))
        assert res.value == (n + 1) // 2 + 1
        cert = res.certificate
        assert cert.orientation.max_outdegree() <= cert.level - 1
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
    orientation at cap ceil(max density), its method and diff as engine_diff
    gives them. The density comes from the brute-force oracle where it reaches
    (n <= 20), so path reversal is not pinned against itself there."""
    dens = max_density_bruteforce(g) if g.n <= 20 else max_density(g)
    level = math.ceil(dens.density) + 1
    d = bounded_outdegree_orientation(g, level - 1)
    method, diff = engine_diff(d)
    return ATCertificate(level, d, None if diff is None else abs(diff), method)


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
    assert at_lower_bound(complete(5)) == [(5, "chromatic"), (3, "density-pigeonhole")]
    assert at_lower_bound(hypercube(4)) == [(2, "chromatic"), (3, "density-pigeonhole")]
    report = check_theorem_1(3, tree_from_pruefer((0, 1)))
    assert report.verdict == "pass"
    assert report.evidence.endswith("least max outdegree 3")


def test_density_terms_recount_the_vertex_set_witness(monkeypatch):
    # a cap of 2 on C4 with R = V claims 4 > 1 * 4 edges: false, so no
    # lower bound may rest on it
    g = cycle(4)
    false_witness = least_uniform_cap(g)._replace(cap=2, witness=(0, 1, 2, 3))
    monkeypatch.setattr(atlab.atsolver, "least_uniform_cap", lambda _g: false_witness)
    with pytest.raises(ProofObligationError):
        at_lower_bound(g)
    with pytest.raises(ProofObligationError):
        at_bipartite(g)


def test_at_bipartite_checks_its_orientation_meets_the_cap(monkeypatch):
    # C4's cap 1 with a split that gives outdegrees 2, 0, 2, 0: the witness
    # is true, but the level-2 certificate would claim an orientation of max
    # outdegree 1 that it does not hold
    g = cycle(4)
    wrong_split = least_uniform_cap(g)._replace(split=(1, 0, 0, 1, 1, 0, 1, 0))
    assert wrong_split.cap == 1 and wrong_split.orientation.outdegrees == (2, 0, 2, 0)
    monkeypatch.setattr(atlab.atsolver, "least_uniform_cap", lambda _g: wrong_split)
    with pytest.raises(ProofObligationError, match="cap 1 orientation has max outdegree 2"):
        at_bipartite(g)


def test_every_returned_certificate_sits_one_above_its_max_outdegree():
    # an orientation proves AT <= its max outdegree + 1 and no less, so a
    # level set from elsewhere (a cap, a rule) and never checked against the
    # orientation would claim more than the certificate holds
    from atlab.theorems import corona_at

    certs = []
    for name, g in corpus():
        certs += [(name, "at_exact", at_exact(g).certificate),
                  (name, "budget 0", at_exact(g, SolverOptions(time_budget=0)).certificate),
                  (name, "acyclic", acyclic_certificate(g))]
        if bipartition(g) is not None:
            certs.append((name, "at_bipartite", at_bipartite(g).certificate))
    for name, g1, g2 in [("Q3oC3", hypercube(3), cycle(3)), ("Q2oP4", hypercube(2), path(4)),
                         ("C5oK1", cycle(5), complete(1)), ("C4oK2", cycle(4), complete(2))]:
        certs.append((name, "corona_at", corona_at(g1, g2).certificate))
    found = [(name, route, cert.level, cert.orientation.max_outdegree())
             for name, route, cert in certs if cert.level != cert.orientation.max_outdegree() + 1]
    assert len(certs) == 122 and not found, found


def test_at_exact_runs_path_reversal_only_where_the_density_term_can_win(monkeypatch):
    # the density term is at most the degeneracy level and ceil(max deg/2)+1,
    # and chi wins ties, so at_exact skips it when chi reaches either bound
    def forbidden(g):
        raise AssertionError("path reversal run for a term that cannot win")

    monkeypatch.setattr(atlab.atsolver, "least_uniform_cap", forbidden)
    for g, value, reason in [
        # chi 5 is past the ceiling ceil(5/2)+1 = 4
        (cartesian_product(complete(5), complete(2)), 5, "chromatic"),
        # chi 3 meets the ceiling ceil(4/2)+1 = 3; level 3 is refuted
        (cartesian_product(cycle(3), cycle(3)), 4, "exhaustive-refutation"),
        # chi 4 meets the degeneracy level 4
        (corona(cycle(3), cycle(3)), 4, "chromatic"),
    ]:
        res = at_exact(g, SolverOptions(search_edge_cap=g.m))
        assert (res.value, res.lower_bound_reason) == (value, reason)

    # K3 x K3 x K2: the term 4 beats chi 3 under both bounds (level 6, ceiling 4)
    calls = []
    monkeypatch.setattr(atlab.atsolver, "least_uniform_cap",
                        lambda g: calls.append(g) or least_uniform_cap(g))
    g = cartesian_product(cartesian_product(complete(3), complete(3)), complete(2))
    res = at_exact(g, SolverOptions(search_edge_cap=g.m))
    assert calls == [g]
    assert (res.value, res.lower_bound_reason) == (4, "density-pigeonhole")


def test_at_exact_builds_only_the_certificate_it_returns(monkeypatch):
    # the degeneracy level comes from the peel and the density term from the
    # split, so the one orientation built is the certificate: the search's at
    # a found level, the acyclic one at the degeneracy level, and no other
    built = []
    real = atlab.atsolver.Orientation

    def counted(g, tails):
        built.append(real(g, tails))
        return built[-1]

    c3c4 = cartesian_product(cycle(3), cycle(4))
    c3oc3 = corona(cycle(3), cycle(3))
    k3k3k2 = cartesian_product(cartesian_product(complete(3), complete(3)), complete(2))
    acyclic = acyclic_certificate(c3oc3)
    monkeypatch.setattr(atlab.atsolver, "Orientation", counted)
    for g, value, method in [
        (c3c4, 3, "enumeration"),  # found at level 3, below the degeneracy level 5
        (c3oc3, 4, "acyclic"),  # chi 4 meets the degeneracy level 4
        (k3k3k2, 4, "polynomial"),  # the density term 4 runs path reversal
    ]:
        built.clear()
        res = at_exact(g, SolverOptions(search_edge_cap=g.m))
        assert (res.value, res.certificate.method) == (value, method)
        assert built == [res.certificate.orientation]
        if method == "acyclic":
            assert res.certificate == acyclic
    assert res.lower_bound_reason == "density-pigeonhole"
    # the split is oriented when read, as path reversal oriented it
    built.clear()
    assert atlab.atsolver._density_term(k3k3k2) == (4, "density-pigeonhole")
    assert built == []
    for g in (hypercube(3), cartesian_product(hypercube(3), path(3)), complete_bipartite(2, 5)):
        cert = at_bipartite(g).certificate
        assert cert.orientation == bounded_outdegree_orientation(g, cert.level - 1)
        assert cert.orientation.graph is g


def _naive_peel(g):
    """Repeatedly remove a vertex of least remaining degree, lowest index
    first; the order and the largest degree at removal."""
    alive, order, most = set(range(g.n)), [], 0
    while alive:
        degree = {v: sum(w in alive for w in g.adjacency[v]) for v in alive}
        v = min(alive, key=lambda v: (degree[v], v))
        order.append(v)
        most = max(most, degree[v])
        alive.remove(v)
    return order, most


def test_the_peel_gives_the_degeneracy_order_and_level():
    rng = random.Random(2204)
    graphs = [Graph([], []), Graph(["a"], []), cycle(5), complete(6), hypercube(3)]
    while len(graphs) < 300:
        graphs.append(random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6, 0.9))))
    for g in graphs:
        order, degeneracy = atlab.atsolver._peel(g)
        assert (order, degeneracy) == _naive_peel(g), g.edges
        assert acyclic_certificate(g).level == degeneracy + 1


def test_at_exact_two_colors_each_graph_once(monkeypatch):
    # bipartition keeps the 2-coloring on the graph, so the bipartite
    # shortcut, the chromatic term, at_bipartite and chromatic_number share
    # one coloring of each graph object
    colored = []

    def counted(adjacency):
        colored.append(adjacency)
        return two_coloring(adjacency)

    monkeypatch.setattr(atlab.graphs, "two_coloring", counted)
    monkeypatch.setattr(atlab.atsolver, "two_coloring", counted)
    for g, shortcut, value in [
        (hypercube(3), True, 3),
        (hypercube(3), False, 3),
        (cycle(5), True, 3),
        (cartesian_product(cycle(5), complete(2)), True, 3),
        (corona(cycle(3), cycle(3)), True, 4),
    ]:
        colored.clear()
        options = SolverOptions(search_edge_cap=g.m)
        assert at_exact(g, options, bipartite_shortcut=shortcut).value == value
        assert [a for a in colored if a is g.adjacency] == [g.adjacency], g
    for g, bipartite in [(hypercube(3), True), (corona(cycle(3), cycle(3)), False)]:
        colored.clear()
        calls = [chromatic_number, at_exact, at_lower_bound] + [at_bipartite] * bipartite
        for call in calls:
            call(g)
        assert [a for a in colored if a is g.adjacency] == [g.adjacency], g
        sides = bipartition(g)
        assert sides is bipartition(g)
        assert type(sides) is tuple if bipartite else sides is None


def test_a_witness_of_every_vertex_is_not_recounted(monkeypatch):
    recounted = []
    monkeypatch.setattr(atlab.atsolver, "induced_edge_count",
                        lambda g, r: recounted.append(r) or induced_edge_count(g, r))
    k3k3k2 = cartesian_product(cartesian_product(complete(3), complete(3)), complete(2))
    assert at_lower_bound(hypercube(4)) == [(2, "chromatic"), (3, "density-pigeonhole")]
    assert at_bipartite(hypercube(4)).value == 3
    assert at_exact(k3k3k2, SolverOptions(search_edge_cap=k3k3k2.m)).value == 4
    assert recounted == []
    # K6 with a pendant path: the witness is the K6, and it is recounted
    g = Graph([str(i) for i in range(10)],
              list(complete(6).edges) + [(0, 6), (6, 7), (7, 8), (8, 9)])
    assert at_lower_bound(g) == [(6, "chromatic"), (4, "density-pigeonhole")]
    assert recounted == [(0, 1, 2, 3, 4, 5)]


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


def test_a_negative_cap_admits_no_orientation():
    # no outdegree is below 0, even where the other caps leave slack
    g = path(3)
    for caps in ([-1, 2, 2], [2, -1, 2], [-1, 1, 1]):
        assert find_at_orientation(g, caps) is None, caps
        assert bounded_outdegree_orientation(g, caps) is None, caps
    assert find_at_orientation(Graph(["v"], []), -1) is None


def test_at_exact_c3xc3():
    res = at_exact(cartesian_product(cycle(3), cycle(3)), SolverOptions(search_edge_cap=24))
    assert res.value == 4
    assert res.lower_bound_reason == "exhaustive-refutation"
    assert res.certificate.orientation.max_outdegree() <= res.certificate.level - 1


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


def test_pendant_coronas_are_decided_within_a_short_budget():
    # Lemma 3.6: AT(G o K1) = max(AT(G), AT(K1) + 1) = AT(G) = 4 here. Each
    # pendant copy has degree 1 but the level's cap 2 at level 3, and only
    # clipping the caps to the degrees leaves the search no slack there
    for g1 in (cartesian_product(cycle(5), cycle(5)), cartesian_product(cycle(3), cycle(7))):
        g = corona(g1, complete(1))
        res = at_exact(g, SolverOptions(search_edge_cap=g.m, time_budget=2))
        assert (res.lo, res.hi) == (4, 4), g1.n


def test_lower_bound_never_exceeds_exact_and_certs_reverify():
    from atlab import verify_certificate

    for name, g in corpus():
        if g.m > 18:
            continue
        res = at_exact(g, SolverOptions(search_edge_cap=18))
        if not res.is_exact:
            continue
        terms = at_lower_bound(g)
        assert [reason for _, reason in terms] == ["chromatic", "density-pigeonhole"], name
        assert all(value <= res.value for value, _ in terms), (name, terms)
        assert terms[0][0] == chromatic_number(g) <= res.value, name
        assert verify_certificate(res.certificate).accepted, name


def test_subgraph_monotonicity_spot_check():
    g = cartesian_product(cycle(3), cycle(3))
    sub, _ = induced_subgraph(g, range(6))
    opts = SolverOptions(search_edge_cap=24)
    assert at_exact(sub, opts).value <= at_exact(g, opts).value
    h = corona(cycle(3), path(2))
    sub2, _ = induced_subgraph(h, range(3))
    assert at_exact(sub2, opts).value <= at_exact(h, opts).value


def test_zero_time_budget_gives_the_bounds_bracket():
    cert = acyclic_certificate(cycle(5))
    assert cert.level == 3 and cert.diff_magnitude == 1
    assert eulerian_tally_enumerate(cert.orientation).diff == 1
    # with no time to search, the bracket is the best lower bound against
    # the degeneracy certificate, which is the certificate given
    for g, options, terms, expected in [
        (cycle(5), SolverOptions(time_budget=0),
         [(3, "chromatic"), (2, "density-pigeonhole")], (3, 3)),
        (cartesian_product(cycle(3), cycle(5)),
         SolverOptions(search_edge_cap=30, time_budget=0),
         [(3, "chromatic"), (3, "density-pigeonhole")], (3, 5)),
    ]:
        res = at_exact(g, options)
        assert at_lower_bound(g) == terms
        acyclic = acyclic_certificate(g)
        assert (res.lo, res.hi) == (max(v for v, _ in terms), acyclic.level) == expected
        assert res.lower_bound_reason == "chromatic"
        assert res.certificate == acyclic
    # chi lower bound meets the degeneracy certificate
    assert at_exact(cycle(5), SolverOptions(time_budget=0)).value == 3
    res2 = at_exact(complete_bipartite(3, 3), SolverOptions(time_budget=0))
    assert res2.lo <= 3 <= res2.hi


def test_a_certificate_below_a_refuted_level_breaks_the_proof(monkeypatch):
    # C3 x C3 refutes level 3 before it finds level 4; a certificate claiming
    # level 2 contradicts both lower terms and the refutation
    g = cartesian_product(cycle(3), cycle(3))
    monkeypatch.setattr(atlab.atsolver, "_certify",
                        lambda _g, d: ATCertificate(2, d, 1, "enumeration"))
    with pytest.raises(ProofObligationError, match="exhaustive-refutation lower bound 4"):
        at_exact(g, SolverOptions(search_edge_cap=24))


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
    assert g.m > atlab.eulerian.ENUM_CAP and cert.method == "polynomial"
    assert cert.orientation.max_outdegree() <= cert.level - 1 and cert.diff_magnitude > 0


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


def test_chi_over_the_chromatic_budget_still_counts_as_3():
    # C65 is one block past CHROMATIC_BLOCK_CAP = 64, so chi is never
    # computed; the block is not bipartite, so its odd cycle gives chi >= 3,
    # which meets the degeneracy certificate and the answer is exact. The
    # term is named for the odd cycle, not for chi
    res = at_exact(cycle(65))
    assert (res.lo, res.hi, res.lower_bound_reason) == (3, 3, "odd-cycle")
    assert at_lower_bound(cycle(65))[0] == (3, "odd-cycle")
