import itertools
import json
import sys
from pathlib import Path

import pytest

import atlab
from atlab import eulerian, theorems
from atlab import (
    CapacityError,
    Graph,
    ProofObligationError,
    SolverOptions,
    at_exact,
    cartesian_product,
    chromatic_number,
    complete,
    complete_bipartite,
    corona,
    corona_at,
    cycle,
    hypercube,
    path,
    run_suite,
    star,
    tree_from_pruefer,
    verify_certificate,
)
from atlab.atsolver import bracket
from atlab.theorems import (
    check_chi_product,
    check_corollary_3_4,
    check_corollary_3_7,
    check_corollary_3_8,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_5,
    check_lemma_3_6,
    check_lemma_3_9,
    check_remark_gap,
    check_theorem_1,
    check_theorem_2,
    check_toroidal_regression,
    random_corona_pairs,
    remark_instances,
    tree_catalog,
)
from helpers import naive_chromatic


def test_lemma_3_1_instances():
    for g, name, expected in [
        (complete_bipartite(3, 3), "K3,3", "3"),
        (cycle(6), "C6", "2"),
        (hypercube(2), "Q2", "2"),
    ]:
        rep = check_lemma_3_1(g, name)
        assert rep.verdict == "pass" and rep.predicted == expected, rep
    with pytest.raises(ValueError):
        check_lemma_3_1(star(4), "S4")
    with pytest.raises(ValueError):
        check_lemma_3_1(cycle(5), "C5")


def test_lemma_3_2_range():
    for n, expected in [(1, 2), (3, 3), (6, 4)]:
        rep = check_lemma_3_2(n)
        assert rep.verdict == "pass" and rep.predicted == str(expected)


def test_closed_form_rows_cross_check_exactly_the_graphs_within_the_edge_cap():
    # a search the edge cap refuses is no evidence: both closed-form claims
    # skip it rather than report its bracket, and label a search alike
    reports = run_suite(["lemma3.1", "lemma3.2"], SolverOptions(search_edge_cap=0))
    assert [r.verdict for r in reports] == ["pass"] * 10, reports
    assert not any("search" in r.evidence for r in reports)
    # Q3 has 12 edges, K3,3 9 and Q4 32
    cap12 = {r.instance: r for r in run_suite(["lemma3.1", "lemma3.2"],
                                              SolverOptions(search_edge_cap=12))}
    assert cap12["Q3"].evidence.endswith("; exhaustive search: 3")
    assert cap12["K3,3"].evidence.endswith("; exhaustive search: 3")
    assert "search" not in cap12["Q4"].evidence


def test_run_suite_times_every_row_and_a_lone_check_is_untimed():
    reports = run_suite(["lemma3.2", "remark-gap"], n_range=[1, 2])
    assert len(reports) == 11 and all(r.millis > 0 for r in reports), reports
    assert check_lemma_3_2(1).millis == 0.0


def test_suite_cross_checks_each_closed_form_row_by_its_own_search(monkeypatch):
    searched = []
    real_at_exact = theorems.at_exact

    def at_exact(g, options, **kwargs):
        if kwargs.get("bipartite_shortcut") is False:
            searched.append(g)
        return real_at_exact(g, options, **kwargs)

    monkeypatch.setattr(theorems, "at_exact", at_exact)
    run_suite()
    # K3,3, C6 and Q2 from Lemma 3.1; Q1, Q2 and Q3 from Lemma 3.2: the
    # memo keeps no search, so the Q2 both lemmas list is searched twice
    assert set(searched) == {complete_bipartite(3, 3), cycle(6), hypercube(1),
                             hypercube(2), hypercube(3)}
    assert len(searched) == 6 and searched.count(hypercube(2)) == 2, searched


def test_theorem_1_cases():
    rep = check_theorem_1(3, path(2), "P2")
    assert rep.predicted == "3" and rep.verdict == "pass"  # odd n, m=2
    rep = check_theorem_1(2, path(4), "P4")
    assert rep.predicted == "3" and rep.verdict == "pass"
    rep = check_theorem_1(3, star(5), "S5")
    assert rep.predicted == "4" and rep.verdict == "pass"
    with pytest.raises(ValueError):
        check_theorem_1(2, cycle(4), "C4")


def test_corollary_3_4():
    for n, k, expected in [(1, 2, 3), (2, 2, 3), (4, 3, 4)]:
        rep = check_corollary_3_4(n, k)
        assert rep.verdict == "pass" and rep.predicted == str(expected)


def test_lemma_3_5_fig3_values():
    rep = check_lemma_3_5(cycle(3), cycle(4), "C3", "C4")
    assert (rep.predicted, rep.computed, rep.verdict) == ("3", "3", "pass")
    rep = check_lemma_3_5(cycle(4), cycle(3), "C4", "C3")
    assert (rep.predicted, rep.computed, rep.verdict) == ("4", "4", "pass")
    rep = check_lemma_3_5(complete(2), Graph(["0"], []), "K2", "K1")
    assert (rep.predicted, rep.computed, rep.verdict) == ("2", "2", "pass")


def test_lemma_3_6_cases():
    rep = check_lemma_3_6(cycle(4), complete(2), "C4", "K2")
    assert rep.predicted == "{2, 3}" and rep.computed == "3" and rep.verdict == "pass"
    rep = check_lemma_3_6(cycle(5), Graph(["0"], []), "C5", "K1")
    assert rep.predicted == "3" and rep.computed == "3" and rep.verdict == "pass"
    rep = check_lemma_3_6(hypercube(2), path(4), "Q2", "P4")
    assert rep.predicted == "{2, 3}" and rep.verdict == "pass"


def test_corollary_3_7_instances():
    rep = check_corollary_3_7(complete(2), cycle(3), "K2", "C3")
    assert rep.verdict == "pass" and "chi=4, AT=4" in rep.computed
    rep = check_corollary_3_7(path(3), complete(3), "P3", "K3")
    assert rep.verdict == "pass" and "chi=4, AT=4" in rep.computed
    rep = check_corollary_3_7(complete(2), cycle(4), "K2", "C4")
    assert rep.verdict == "pass" and "chi=3, AT=3" in rep.computed
    with pytest.raises(ValueError):
        check_corollary_3_7(cycle(3), path(3), "C3", "P3")  # AT(P3) < AT(C3)


def test_theorem_2_cases():
    rep = check_theorem_2(2, tree_from_pruefer((1, 1)), "T4")
    assert rep.predicted == "3" and rep.verdict == "pass"
    rep = check_theorem_2(1, complete(2), "K2")
    assert rep.predicted == "3" and rep.verdict == "pass"
    rep = check_theorem_2(4, path(3), "P3")
    assert rep.predicted == "3" and rep.verdict == "pass"
    with pytest.raises(ValueError):
        check_theorem_2(2, cycle(3), "C3")  # AT(C3) = 3, hypothesis fails


def test_corollary_3_8_and_lemma_3_9():
    rep = check_corollary_3_8(2, 2)
    assert rep.predicted == "3" and rep.verdict == "pass"
    rep = check_lemma_3_9(3, 1)
    assert rep.predicted == "4" and rep.verdict == "pass"
    rep = check_lemma_3_9(6, 2)
    assert rep.predicted == "4" and rep.verdict == "pass"


def test_toroidal_rows():
    opts = SolverOptions(search_edge_cap=24)
    rep = check_toroidal_regression(3, 3, opts)
    assert (rep.predicted, rep.computed, rep.verdict) == ("4", "4", "pass")
    rep = check_toroidal_regression(3, 4, opts)
    assert (rep.predicted, rep.computed, rep.verdict) == ("3", "3", "pass")
    rep = check_toroidal_regression(4, 4, opts)
    assert (rep.predicted, rep.computed, rep.verdict) == ("3", "3", "pass")
    assert "bipartite" in rep.evidence


def test_chi_product_rows():
    assert check_chi_product(complete(2), cycle(5), "K2", "C5").verdict == "pass"
    assert check_chi_product(cycle(3), cycle(3), "C3", "C3").verdict == "pass"
    assert check_chi_product(hypercube(2), hypercube(2), "Q2", "Q2").verdict == "pass"


def test_corona_at_pinches_exactly():
    res = corona_at(hypercube(3), path(3))
    assert res.value == 3  # equals chi: the non-choosability remark fails here
    res = corona_at(hypercube(3), cycle(3))
    assert res.value == 4
    res = corona_at(cycle(5), Graph(["0"], []))
    assert res.value == 3


def test_corona_at_multiplies_the_recorded_factor_magnitudes(monkeypatch):
    # K2 o C4: the C4 closed-form orientation is a directed 4-cycle (|diff|
    # 2), so the law gives 1 * 2^2
    res = corona_at(complete(2), cycle(4))
    assert res.certificate.diff_magnitude == 4
    assert verify_certificate(res.certificate).diff_magnitude == 4
    # with ENUM_CAP 3 the C3 x C3 certificate is re-checked by the
    # coefficient engine alone; its recorded |diff| still feeds the law
    tight = SolverOptions(search_edge_cap=18)
    c3c3 = cartesian_product(cycle(3), cycle(3))
    with monkeypatch.context() as patch:
        patch.setattr(eulerian, "ENUM_CAP", 3)
        factor = at_exact(c3c3, tight).certificate
        assert factor.method == "polynomial" and factor.diff_magnitude == 2
        res = corona_at(c3c3, complete(2), tight)
    assert (res.lo, res.hi) == (4, 4)
    assert res.certificate.diff_magnitude == 2 and res.certificate.method == "product-law"
    rep = verify_certificate(res.certificate)
    assert rep.accepted and rep.diff_magnitude == 2


def test_checks_solve_each_graph_once(monkeypatch):
    # a claim check hands the factor results it holds to the pinch, so no
    # graph is solved or colored twice within one check
    calls = []

    def counted(name, fn):
        def wrapper(g, *args, **kwargs):
            calls.append((name, g))
            return fn(g, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(theorems, "at_exact", counted("at_exact", theorems.at_exact))
    monkeypatch.setattr(
        theorems, "chromatic_number", counted("chi", theorems.chromatic_number)
    )
    for check in (
        lambda: check_lemma_3_6(cycle(4), complete(2), "C4", "K2"),
        lambda: check_corollary_3_7(complete(2), cycle(3), "K2", "C3"),
        lambda: check_theorem_2(2, complete(2), "K2"),
    ):
        calls.clear()
        assert check().verdict == "pass"
        assert calls and len(calls) == len(set(calls)), calls


def test_suite_solves_each_factor_and_builds_each_hypercube_once_per_call(monkeypatch):
    # one run_suite call shares its exact factor results and its hypercubes
    # between checks; nothing of it outlives the call
    factor_solves, all_solves, built = [], [], []
    real_at_exact, real_hypercube = theorems.at_exact, theorems.hypercube

    def at_exact(g, options, **kwargs):
        all_solves.append(g)
        # a factor solve is the `make` that `_exact_at` hands to `_shared`
        # (callers: the lambda, then `_shared`, then `_exact_at`)
        if sys._getframe(3).f_code.co_name == "_exact_at":
            factor_solves.append((g, options))
        return real_at_exact(g, options, **kwargs)

    def hypercube(n):
        built.append(n)
        return real_hypercube(n)

    monkeypatch.setattr(theorems, "at_exact", at_exact)
    monkeypatch.setattr(theorems, "hypercube", hypercube)
    counts = []
    for _ in range(2):
        for calls in (factor_solves, all_solves, built):
            calls.clear()
        run_suite(seed=11)
        assert len(factor_solves) == len(set(factor_solves)), factor_solves
        assert sorted(built) == [1, 2, 3, 4, 5, 6]
        assert theorems._memo is None
        counts.append((len(factor_solves), len(all_solves), len(built)))
    assert counts[0] == counts[1]
    # a check called on its own solves and builds afresh
    factor_solves.clear()
    built.clear()
    assert check_theorem_2(2, complete(2), "K2").verdict == "pass"
    assert [g for g, _ in factor_solves] == [complete(2), real_hypercube(2)] and built == [2]
    # the memo is gone after a run that raises as well
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 3)
    with pytest.raises(CapacityError):
        run_suite(["remark-gap"])
    assert theorems._memo is None


def test_suite_colors_where_a_row_reads_chi(monkeypatch):
    # the run_suite memo keeps exact factor results, keyed by (graph,
    # options), and hypercubes, keyed by n; chi is computed by the rows that
    # report it, each call from the row itself, and the same in every run
    colored, keys = [], []
    readers = {"_chi_row", "check_corollary_3_7", "remark_instances"}
    real_shared = theorems._shared

    def counted(g, *args, **kwargs):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
            caller = caller.f_back
        colored.append((caller.f_code.co_name, g))
        return chromatic_number(g, *args, **kwargs)

    def shared(key, make):
        keys.append(key)
        return real_shared(key, make)

    monkeypatch.setattr(theorems, "chromatic_number", counted)
    monkeypatch.setattr(theorems, "_shared", shared)
    runs = []
    for _ in range(2):
        colored.clear()
        keys.clear()
        run_suite(seed=11)
        runs.append(list(colored))
        assert colored and {reader for reader, _ in colored} == readers
        assert keys and all(
            type(key) is int
            or type(key) is tuple and [type(k) for k in key] == [Graph, SolverOptions]
            for key in keys
        ), keys
    assert runs[0] == runs[1]
    # a check called on its own colors afresh
    colored.clear()
    check_lemma_3_5(cycle(3), cycle(4), "C3", "C4")
    check_lemma_3_5(cycle(3), cycle(4), "C3", "C4")
    assert len(colored) == 6


def test_corollary_3_7_fails_on_a_wrong_chi_of_the_corona(monkeypatch):
    # the row claims chi = AT, so a computed chi off the prediction fails it
    # even where the AT bracket passes
    wrong = corona(complete(2), cycle(3))

    def chi(g):
        return 3 if g == wrong else chromatic_number(g)

    monkeypatch.setattr(theorems, "chromatic_number", chi)
    rep = check_corollary_3_7(complete(2), cycle(3), "K2", "C3")
    assert (rep.verdict, rep.computed) == ("fail", "chi=3, AT=4"), rep
    assert rep.evidence.startswith("chi(corona)=3;")


def test_pinch_colors_nothing(monkeypatch):
    # the cone K1 + H bounds chi by H's own chromatic term plus one, so the
    # corona rule reads chi(H) from H's result and colors neither H nor the
    # corona, with time to spare or none; and chi <= AT, so once
    # max(AT(G), AT(H)) meets the certificate level it adds no cone term
    def forbidden(*args, **kwargs):
        raise AssertionError("the pinch colored a graph")

    for options in (SolverOptions(), SolverOptions(time_budget=0)):
        cases = [
            (hypercube(5), cycle(3), (4, 4, "subgraph")),  # AT(Q5) = 4 = level
            (hypercube(3), complete(2), (3, 3, "subgraph")),  # AT(Q3) = 3 = level
            (hypercube(3), path(3), (3, 3, "subgraph")),
            (hypercube(4), cycle(3), (4, 4, "chromatic")),  # AT(Q4) = AT(C3) = 3 < 4
            (hypercube(2), path(3), (3, 3, "chromatic")),  # AT(Q2) = AT(P3) = 2 < 3
            (hypercube(3), cycle(3), (4, 4, "chromatic")),
        ]
        solved = [(g1, at_exact(g1, options), g2, at_exact(g2, options), expected)
                  for g1, g2, expected in cases]
        with monkeypatch.context() as patch:
            for module in (theorems, atlab.atsolver):
                patch.setattr(module, "chromatic_number", forbidden)
            patch.setattr(atlab.graphs, "two_coloring", forbidden)
            for g1, r1, g2, r2, expected in solved:
                rule = theorems._corona_rule(r1, r2)
                assert (rule.lo, rule.level, rule.reason) == expected, (g1, g2)
    # nor does a bracket row color anything beyond its factors, or build the
    # corona or its orientation: it reads its bracket off the corona rule
    def built(*args, **kwargs):
        raise AssertionError("a bracket row built the corona")

    monkeypatch.setattr(theorems, "chromatic_number", forbidden)
    for module in (theorems, atlab.construct):
        monkeypatch.setattr(module, "corona", built)
        monkeypatch.setattr(module, "corona_orientation", built)
    for check in (lambda: check_lemma_3_9(4, 1), lambda: check_theorem_2(2, path(3), "P3"),
                  lambda: check_lemma_3_6(cycle(4), complete(2), "C4", "K2"),
                  lambda: check_corollary_3_8(3, 2)):
        assert check().verdict == "pass"


def test_suite_builds_the_corona_orientation_only_for_certificates(monkeypatch):
    # every corona row reads its bracket off the corona rule; corollary 3.7
    # and the remark rows build the corona to color it, but no orientation.
    # Only corona_at, which returns the certificate, builds one
    built = []

    def counted(g1, d1, g2, d2):
        built.append((g1, g2))
        return atlab.construct.corona_orientation(g1, d1, g2, d2)

    monkeypatch.setattr(theorems, "corona_orientation", counted)
    run_suite(seed=11)
    assert built == []
    corona_at(path(3), complete(3))
    assert built == [(path(3), complete(3))]


def test_corona_rule_matches_the_built_certificate():
    # the rule's numbers are corona_at's, whose certificate is the corona
    # orientation built from the factors' certificates. The pairs hold every
    # corona that corollary 3.7 and the remark rows color: P3 o K3 and Q_n o H
    hs = [Graph(["0"], []), complete(2), path(3), path(4), cycle(3), cycle(4), cycle(5),
          cycle(6), complete(3)]
    pairs = [(hypercube(n), h) for n in range(1, 6) for h in hs]
    pairs.append((path(3), complete(3)))
    pairs.append((cycle(5), Graph([], [])))  # an empty H: AT(C5) with no cone term
    for g1, g2 in pairs:
        rule = theorems._corona_rule(at_exact(g1), at_exact(g2))
        res = corona_at(g1, g2)
        cert = res.certificate
        assert (rule.terms, rule.level, rule.magnitude, rule.method) == (
            res.terms, cert.level, cert.diff_magnitude, cert.method
        ), (g1, g2)
        assert (rule.lo, rule.reason) == (res.lo, res.lower_bound_reason)
        assert cert.orientation.graph == corona(g1, g2)
        assert cert.orientation.max_outdegree() + 1 == rule.level
    res = corona_at(cycle(5), Graph([], []))
    assert (res.terms, res.hi, res.certificate.method) == (((3, "subgraph"),), 3, "product-law")


def test_corona_rule_refuses_an_empty_base_graph():
    with pytest.raises(ValueError, match="corona base graph must be nonempty"):
        check_lemma_3_6(Graph([], []), complete(2))


def test_pinch_checks_the_built_orientation_against_the_rule(monkeypatch):
    # every hub link leaving its hub puts |V(H)| more arcs on each hub
    def hub_links_out(g1, d1, g2, d2):
        c = corona(g1, g2)
        return atlab.Orientation(c, [u for u, _ in c.edges]), "corona"

    monkeypatch.setattr(theorems, "corona_orientation", hub_links_out)
    with pytest.raises(ProofObligationError, match="the corona rule gives 3"):
        corona_at(hypercube(3), path(3))


def _labelled_graphs(max_n):
    """Every graph on the vertices 0..n-1, for n = 1..max_n."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            yield Graph([str(i) for i in range(n)], edges)


def test_cone_term_matches_coloring_the_whole_corona(monkeypatch):
    # chi(G o H) = max(chi(G), chi(H) + 1) and chi(G) <= AT(G), so the cone
    # K1 + H gives each pinch the bracket and reason that coloring the whole
    # corona gave: the reference below colors the corona
    monkeypatch.setattr(theorems, "_memo", {})  # solve each factor once
    small = list(_labelled_graphs(4))
    pairs = [(g1, g2) for g1 in small for g2 in small]
    pairs += [(g1, g2) for _, g1, _, g2 in random_corona_pairs(100, max_vertices=7, seed=2026)]
    at = {g: at_exact(g).value for g in set(itertools.chain(*pairs))}
    reasons = set()
    for g1, g2 in pairs:
        res = corona_at(g1, g2)
        c = corona(g1, g2)
        chi = chromatic_number(c)
        assert chi == max(chromatic_number(g1), chromatic_number(g2) + 1)
        if c.n <= 10:
            assert chi == naive_chromatic(c)
        lower = max(at[g1], at[g2])
        terms = [(lower, "subgraph")] + ([(chi, "chromatic")] if lower < res.hi else [])
        ref = bracket(terms, res.certificate)
        assert (res.lo, res.hi, res.lower_bound_reason) == (
            ref.lo, ref.hi, ref.lower_bound_reason
        ), (g1, g2)
        reasons.add(res.lower_bound_reason)
    assert reasons == {"subgraph", "chromatic"}
    # an empty H leaves G at its own level: closed, with nothing to color
    res = corona_at(cycle(5), Graph([], []))
    assert (res.lo, res.hi, res.lower_bound_reason) == (3, 3, "subgraph")


def test_tight_chromatic_cap_colors_h_where_the_corona_is_over_budget(monkeypatch):
    # H's blocks are smaller than the corona's hub-plus-copy blocks, so at a
    # tight CHROMATIC_BLOCK_CAP the cone term still closes these brackets
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 3)
    for rep, value, why in [
        (check_lemma_3_9(3, 1), "4", "chromatic"),
        (check_theorem_2(1, path(3), "P3"), "3", "chromatic"),
        # C5 is over the budget too: its chromatic term is the odd-cycle 3,
        # and an apex over an odd cycle is an odd wheel, which needs 4
        (check_lemma_3_9(4, 2), "4", "odd-wheel"),
    ]:
        assert (rep.verdict, rep.computed) == ("pass", value), rep
        assert f"lower {value} via {why}" in rep.evidence
    res = corona_at(hypercube(4), cycle(5))
    assert res.terms == ((3, "subgraph"), (4, "odd-wheel")) and res.value == 4
    # the row claims chi = AT of the corona, whose coloring is over budget:
    # chi >= the cone term and chi <= AT <= the certificate level, and the
    # two meet, so the cone bound proves chi
    reports = run_suite(["corollary3.7"])
    assert [(r.instance, r.verdict, r.computed) for r in reports] == [
        ("K2 o C3", "pass", "chi=4, AT=4"),
        ("P3 o K3", "pass", "chi=4, AT=4"),
        ("K2 o C4", "pass", "chi=3, AT=3"),
    ]
    assert all("by the cone bound" in r.evidence for r in reports)
    # the remark rows report chi of the corona itself
    with pytest.raises(CapacityError):
        run_suite(["remark-gap"])


def test_closed_form_rows_with_a_cut_short_search_are_inconclusive():
    # no time for the cross-check's level search leaves a bracket that holds
    # the closed-form value: inconclusive, not a contradiction
    no_time = SolverOptions(time_budget=0)
    for rep, bracket in [
        (check_lemma_3_2(2, no_time), "[2, 3]"),
        (check_lemma_3_1(complete_bipartite(3, 3), "K3,3", no_time), "[3, 4]"),
    ]:
        assert rep.verdict == "inconclusive", rep
        assert rep.computed == f"{rep.predicted} vs search {bracket}"


def test_remark_gap_checker():
    q4 = hypercube(4)
    from atlab import at_bipartite

    r = at_bipartite(q4)
    rep = check_remark_gap("Q4", chromatic_number(q4), r.lo, r.hi)
    assert rep.verdict == "pass"
    q2 = hypercube(2)
    r = at_bipartite(q2)
    rep = check_remark_gap("Q2", chromatic_number(q2), r.lo, r.hi)
    assert rep.verdict == "fail"  # AT(Q2) = 2 = chi(Q2)
    # on an open bracket, chi = lo leaves AT = chi open; chi below lo proves the gap
    rep = check_remark_gap("X", 3, 3, 4)
    assert (rep.verdict, rep.computed) == ("inconclusive", "chi=3, AT=[3, 4]")
    rep = check_remark_gap("X", 2, 3, 4)
    assert (rep.verdict, rep.computed) == ("pass", "chi=2, AT=[3, 4]")


def test_remark_instances_catalog():
    found = remark_instances()
    names = [name for name, _, _, _ in found]
    assert names == ["Q2", "Q3", "Q4", "Q5", "Q6", "Q2 x P4", "Q2 x C4", "Q3 o P3", "Q3 o C3"]
    # the coronas' brackets are the corona rule's, closed at the proven chi = AT
    assert found[-2:] == [("Q3 o P3", 3, 3, 3), ("Q3 o C3", 4, 4, 4)]


def test_tree_catalog_dedup_and_determinism():
    cat2 = tree_catalog(2)
    assert len(cat2) == 1  # only K2
    cat3 = tree_catalog(3)
    # P3 and S3 are isomorphic but carry distinct labelings; both stay
    assert [n for n, _ in cat3] == ["P3", "S3"]
    cat5 = tree_catalog(5)
    names = [n for n, _ in cat5]
    assert names[:3] == ["P5", "S5", "B5"]
    assert tree_catalog(5) == tree_catalog(5)
    for _, t in cat5:
        assert t.n == 5 and t.m == 4


def test_random_corona_pairs_deterministic():
    a = random_corona_pairs(5, seed=3)
    b = random_corona_pairs(5, seed=3)
    assert [g1.edges for _, g1, _, _ in a] == [g1.edges for _, g1, _, _ in b]


def test_suite_filter_and_determinism():
    reports = run_suite(["lemma3.2"], n_range=range(1, 4))
    assert len(reports) == 3 and all(r.verdict == "pass" for r in reports)
    assert run_suite(["lemma3.2"], n_range=range(1, 4)) == reports
    # an empty sweep runs nothing, not the default range
    assert run_suite(["lemma3.2"], n_range=[]) == []
    assert run_suite(["lemma3.9"], n_range=[5], k_range=[]) == []


def test_default_suite_rows_match_the_golden_file():
    # every text field of every default row at seed 11, so a change to any
    # row's wording or verdict shows here
    golden = json.loads(Path(__file__).with_name("golden_suite_seed11.json").read_text())
    rows = [[r.claim, r.instance, r.predicted, r.computed, r.verdict, r.evidence]
            for r in run_suite(seed=11)]
    assert rows == golden


def test_suite_known_failures_are_the_remark_instances():
    reports = run_suite(["remark-gap"])
    failed = [r.instance for r in reports if r.verdict == "fail"]
    assert failed == ["Q2", "Q3 o P3", "Q3 o C3"]


def test_remark_gap_colors_each_corona_once(monkeypatch):
    # the pinch colors nothing, so the row colors each corona once
    colored = []

    def counted(g, *args, **kwargs):
        colored.append(g)
        return chromatic_number(g, *args, **kwargs)

    monkeypatch.setattr(theorems, "chromatic_number", counted)
    run_suite(["remark-gap"])
    for g2 in (path(3), cycle(3)):
        assert colored.count(corona(hypercube(3), g2)) == 1
    # a corona block (hub plus copy, 4 vertices) over the chromatic budget
    # raises when the row colors the corona
    monkeypatch.setattr(atlab.atsolver, "CHROMATIC_BLOCK_CAP", 3)
    with pytest.raises(CapacityError):
        run_suite(["remark-gap"])
