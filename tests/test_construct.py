from collections import Counter

import pytest

from atlab import (
    ATCertificate,
    Graph,
    Orientation,
    SolverOptions,
    acyclic_certificate,
    at_bipartite,
    bipartition,
    bounded_outdegree_orientation,
    cartesian_product,
    complete,
    corona_cut_sides,
    corona_orientation,
    cycle,
    eulerian_tally_enumerate,
    hypercube,
    one_way_cut_check,
    orient,
    orientation_from_arcs,
    path,
    product_orientation,
    tree_from_pruefer,
    verify_certificate,
)
from atlab.eulerian import diff_coefficient
from helpers import induced_orientation

WIDE = SolverOptions(enum_cap=32)


def cyclic(n):
    return orientation_from_arcs(cycle(n), [(i, (i + 1) % n) for i in range(n)])


def test_product_k2_k2():
    k2 = path(2)
    arc = orient(k2, [0])
    d, recipe = product_orientation(k2, arc, k2, arc)
    assert sorted(d.outdegrees, reverse=True) == [2, 1, 1, 0]
    assert eulerian_tally_enumerate(d).diff == 1  # acyclic
    assert Counter(rule for rule, _ in recipe.edge_rules) == {"R1": 2, "R2": 2}


def test_product_outdegree_profile_exact():
    c4 = cycle(4)
    t4 = tree_from_pruefer((1, 1))
    d1 = cyclic(4)
    d2 = Orientation(t4, [0, 2, 3])  # leaves point at the center
    d, recipe = product_orientation(c4, d1, t4, d2)
    comp = d.graph
    for idx, (u_lab, v_lab) in enumerate(comp.vertices):
        u = c4.vertices.index(u_lab)
        v = t4.vertices.index(v_lab)
        assert d.outdegrees[idx] == d1.outdegrees[u] + d2.outdegrees[v]
    assert d.max_outdegree() == 2
    tally = eulerian_tally_enumerate(d, WIDE)
    assert tally.diff == 16  # frozen; level-3 certificate for the product
    assert len(recipe.edge_rules) == comp.m


def test_product_fig2_path_variant():
    c4, p4 = cycle(4), path(4)
    d1 = cyclic(4)
    d2 = Orientation(p4, [1, 2, 3])
    d, _ = product_orientation(c4, d1, p4, d2)
    assert d.max_outdegree() == 2
    assert eulerian_tally_enumerate(d, WIDE).diff != 0


def test_product_validates_inputs():
    with pytest.raises(ValueError):
        product_orientation(cycle(4), cyclic(3), cycle(4), cyclic(4))


def test_corona_outdegree_profile_exact():
    q2, t4 = hypercube(2), tree_from_pruefer((1, 1))
    d1 = bounded_outdegree_orientation(q2, 1)
    d2 = Orientation(t4, [0, 2, 3])
    d, recipe = corona_orientation(q2, d1, t4, d2)
    m = q2.n
    for i in range(m):
        assert d.outdegrees[i] == d1.outdegrees[i]
        base = m + i * t4.n
        for j in range(t4.n):
            assert d.outdegrees[base + j] == d2.outdegrees[j] + 1
    assert d.max_outdegree() <= max(d1.max_outdegree(), d2.max_outdegree() + 1)
    assert Counter(rule for rule, _ in recipe.edge_rules) == {
        "R1": q2.m, "R2": m * t4.m, "R3": m * t4.n}


def test_corona_cut_product_law():
    q2, t4 = hypercube(2), tree_from_pruefer((1, 1))
    d1 = bounded_outdegree_orientation(q2, 1)
    d2 = Orientation(t4, [0, 2, 3])
    d, _ = corona_orientation(q2, d1, t4, d2)
    leaves, hub = corona_cut_sides(q2, t4)
    rep = one_way_cut_check(d, leaves, hub, WIDE)
    assert rep.one_way and rep.product_ok
    assert rep.diff_whole == rep.diff_left * rep.diff_right != 0
    # the reference route: tally each side's induced orientation, and d whole
    assert rep.diff_left == eulerian_tally_enumerate(induced_orientation(d, leaves), WIDE).diff
    assert rep.diff_right == eulerian_tally_enumerate(induced_orientation(d, hub), WIDE).diff
    assert rep.diff_whole == eulerian_tally_enumerate(d, WIDE).diff


def test_corona_requires_at_factor():
    c4, c3 = cycle(4), cycle(3)
    d_whole, _ = corona_orientation(c4, cyclic(4), c3, cyclic(3))
    assert eulerian_tally_enumerate(d_whole, WIDE).diff == 0
    acyc3 = Orientation(c3, [0, 1, 0])
    d_good, _ = corona_orientation(c4, cyclic(4), c3, acyc3)
    assert abs(eulerian_tally_enumerate(d_good, WIDE).diff) == 2


def test_corona_bipartite_composites_are_at():
    # bipartite corona: K2 o K1 (a path), every constructed orientation AT
    k2 = complete(2)
    single = Graph(["0"], [])
    d1 = orient(k2, [0])
    d2 = Orientation(single, [])
    d, _ = corona_orientation(k2, d1, single, d2)
    t = eulerian_tally_enumerate(d)
    assert t.diff == 1
    assert d.max_outdegree() <= 1


def test_product_bipartite_composites_are_at():
    q2, p3 = hypercube(2), path(3)
    d1 = bounded_outdegree_orientation(q2, 1)
    d2 = orient(p3, [0, 1])
    d, _ = product_orientation(q2, d1, p3, d2)
    assert bipartition(d.graph) is not None
    assert eulerian_tally_enumerate(d, SolverOptions(enum_cap=d.graph.m)).diff != 0


def test_verify_accepts_valid_certificates():
    res = at_bipartite(hypercube(3))
    rep = verify_certificate(res.certificate)
    assert rep.accepted and rep.diff_magnitude and rep.outdegree_ok
    # cross-engine: the certificate recorded enumeration, verify used the other
    assert rep.diff_method == "polynomial"


def test_verify_rejects_zero_diff():
    rep = verify_certificate(cyclic(3), level=2)
    assert rep.verdict == "rejected"
    assert any("diff is zero" in m for m in rep.messages)


def test_verify_rejects_outdegree_violation():
    rep = verify_certificate(cyclic(4), level=1)
    assert rep.verdict == "rejected" and not rep.outdegree_ok


def assert_corona_law(d, recipe, options=WIDE):
    """diff(D) = diff(d1) * diff(d2)^m, sign included, by the coefficient
    engine on D against the tally on the factors, and by the one-way cut."""
    m = recipe.d1.graph.n
    factor_law = (
        eulerian_tally_enumerate(recipe.d1, options).diff
        * eulerian_tally_enumerate(recipe.d2, options).diff ** m
    )
    assert diff_coefficient(d) == factor_law
    cut = one_way_cut_check(d, *corona_cut_sides(recipe.d1.graph, recipe.d2.graph), options)
    assert cut.one_way and cut.product_ok and cut.diff_whole == factor_law


def test_verify_corona_recipe_law():
    c4, c3 = cycle(4), cycle(3)
    acyc3 = Orientation(c3, [0, 1, 0])
    d, recipe = corona_orientation(c4, cyclic(4), c3, acyc3)
    cert = ATCertificate(d.max_outdegree() + 1, d, 2, "enumeration")
    rep = verify_certificate(cert, options=WIDE)
    assert rep.accepted
    assert_corona_law(d, recipe)
    # through the coefficient engine, with a factor of diff -1: the law
    # holds sign included
    prism = cartesian_product(c3, path(2))
    d1 = orient(prism, (0, 1, 0, 3, 4, 5, 0, 4, 2))
    assert eulerian_tally_enumerate(d1).diff == -1
    d, recipe = corona_orientation(prism, d1, path(2), orient(path(2), [0]))
    cert = ATCertificate(d.max_outdegree() + 1, d, 1, "enumeration")
    options = SolverOptions(poly_budget=10**9)
    rep = verify_certificate(cert, options=options)
    assert rep.accepted and rep.diff_method == "polynomial"
    assert_corona_law(d, recipe, options)
    assert diff_coefficient(d) == -1


def test_verify_closed_form_fallback_for_big_bipartite():
    res = at_bipartite(hypercube(6))
    assert res.certificate.diff_magnitude is None
    rep = verify_certificate(res.certificate)
    assert rep.accepted and rep.diff_method == "bipartite-closed-form"


def test_verify_outdegree_only_downgrade():
    # non-bipartite, all engines priced out: the directed C5 is one strongly
    # connected component of 5 arcs and state bound 2^5
    g = cycle(5)
    d = Orientation(g, [0, 1, 2, 3, 4])
    tiny = SolverOptions(enum_cap=1, poly_budget=1)
    rep = verify_certificate(d, level=3, options=tiny)
    assert rep.verdict == "outdegree-only"


def recipe_certificate(kind, g1, g2):
    """A recipe certificate built from factor certificates without search:
    the closed form for a bipartite factor, the degeneracy order otherwise.
    Corona certificates record the product-law magnitude c1 * c2^n."""
    c1, c2 = (
        at_bipartite(g).certificate if bipartition(g) is not None else acyclic_certificate(g)
        for g in (g1, g2)
    )
    build = corona_orientation if kind == "corona" else product_orientation
    d, recipe = build(g1, c1.orientation, g2, c2.orientation)
    magnitude = None
    if kind == "corona" and None not in (c1.diff_magnitude, c2.diff_magnitude):
        magnitude = c1.diff_magnitude * c2.diff_magnitude ** g1.n
    return ATCertificate(d.max_outdegree() + 1, d, magnitude, "product-law"), recipe


def test_verify_recipe_certificates_past_enum_cap():
    # the composites are over enum_cap, but their strongly connected
    # components are copies of the Q_n factor's (the other factor's
    # orientation is acyclic), so the tally decides them
    cases = [
        ("corona", hypercube(3), cycle(3), 4),
        ("corona", hypercube(3), path(3), 4),
        ("corona", hypercube(2), complete(3), 2),
        ("product", hypercube(3), cycle(3), 64),
    ]
    for kind, g1, g2, magnitude in cases:
        cert, recipe = recipe_certificate(kind, g1, g2)
        assert cert.orientation.graph.m > SolverOptions().enum_cap
        rep = verify_certificate(cert)
        assert rep.accepted and rep.diff_method == "enumeration", (kind, g1.n, g2.n)
        assert rep.diff_magnitude == magnitude
        if kind == "corona":
            assert cert.diff_magnitude == magnitude
            assert_corona_law(cert.orientation, recipe, SolverOptions())
    # Q4's closed-form orientation is one strongly connected component of 32
    # arcs and 3^16 states: both engines stay gated
    cert, recipe = recipe_certificate("corona", hypercube(4), cycle(5))
    assert verify_certificate(cert).verdict == "outdegree-only"


def test_corona_cut_reports_on_recipe_certificates():
    # (cross_count, diff_left, diff_right, diff_whole) of the copies/hub cut;
    # Q4 o C5, whose hub is over enum_cap, is the next test's
    cases = [
        (hypercube(3), cycle(3), (24, 1, 4, 4)),
        (hypercube(3), path(3), (24, 1, 4, 4)),
        (hypercube(2), complete(3), (12, 1, 2, 2)),
        (cycle(3), cycle(3), (9, 1, 1, 1)),
    ]
    for g1, g2, expected in cases:
        cert, _ = recipe_certificate("corona", g1, g2)
        rep = one_way_cut_check(cert.orientation, *corona_cut_sides(g1, g2))
        assert rep.one_way and rep.backward_arcs == ()
        assert (rep.cross_count, rep.diff_left, rep.diff_right, rep.diff_whole) == expected


def test_corona_cut_side_over_enum_cap_has_no_diff():
    # Q4 o C5 from the Q4 closed form and the C5 degeneracy order: the copies
    # are acyclic (diff 1), the hub is one 32-arc component over enum_cap
    cert, _ = recipe_certificate("corona", hypercube(4), cycle(5))
    rep = one_way_cut_check(cert.orientation, *corona_cut_sides(hypercube(4), cycle(5)))
    assert rep.one_way and rep.cross_count == 16 * 5  # one hub link per copy vertex
    assert rep.diff_left == 1
    assert rep.diff_right is None and rep.diff_whole is None and rep.product_ok is None
