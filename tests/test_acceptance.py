"""Release acceptance checks, one test per criterion.

Each criterion prints a `ACCEPTANCE <k>: PASS|FAIL` line (run pytest with -s
to watch them) and asserts both the values and its runtime budget. Integer
claims are exact: tolerance zero.

Criterion 12 on Q2, Q3 o P3 and Q3 o C3: the paper's remark asks for a
strict chi < AT gap there, but its own results prove chi = AT:
- AT(G) >= ch(G) >= chi(G) for every graph (Alon and Tarsi 1992), so chi < AT
  fails exactly when the two are equal.
- Q2: Lemma 3.2 gives AT = ceil(2/2)+1 = 2, and Q2 is bipartite. Q3 o P3: the
  corona rule gives AT = AT(Q3) = 3 as AT(P3) = 2 < 3, and Lemma 3.5 gives
  chi = chi(P3)+1 = 3. Q3 o C3: Lemma 3.9 gives AT = 4, and each hub with its
  C3 is a K4, so chi = 4.
- So no program that passes criteria 1, 4 and 5 can show the strict gap there.
On Q3 o P3 and Q3 o C3 criterion 12 asserts the equality (3=3, 4=4) and
re-checks it by two routes no other test takes there: the coefficient engine
on the corona certificate, and the generic solver's chi == AT verdict. On Q2
every part of the equality is already checked elsewhere (criterion 1,
test_atsolver's C4 choosability, test_theorems' remark-gap checker), so
criterion 12 keeps asserting the remark as printed there and fails, on
purpose. The companion theorem suite's remark-gap rows still report the
remark as printed, and so `fail` on exactly these three instances.
"""

import random
import time

import pytest

from atlab import (
    Graph,
    OneWayCutReport,
    at_bipartite,
    at_exact,
    bipartition,
    cartesian_product,
    chromatic_number,
    complete,
    corona,
    cycle,
    eulerian_diff_poly,
    eulerian_tally_enumerate,
    hypercube,
    max_density,
    one_way_cut_check,
    orient,
    path,
)
from atlab import eulerian
from atlab.density import induced_edge_count
from atlab.eulerian import diff_coefficient
from atlab.theorems import (
    ceil_half,
    check_corollary_3_4,
    check_corollary_3_7,
    check_corollary_3_8,
    check_lemma_3_5,
    check_lemma_3_9,
    check_theorem_1,
    corona_at,
    random_corona_pairs,
    tree_catalog,
)
from helpers import (
    chromatic_at_choosable,
    corpus,
    crossing_arcs,
    cut_reference,
    max_density_bruteforce,
    random_bipartite_graph,
    random_graph,
    random_orientation,
)


def _finish(num: int, desc: str, failures: list[str], t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {status} [{elapsed:.1f}s / {budget:.0f}s]")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {num}: {failures}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.1f}s over budget"


def test_criterion_01_hypercube_formula():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 11):
        expected = ceil_half(n) + 1
        got = at_bipartite(hypercube(n)).value
        if got != expected:
            failures.append(f"AT(Q{n}) = {got}, expected {expected}")
    for n in range(1, 4):
        closed = at_bipartite(hypercube(n)).value
        searched = at_exact(hypercube(n), bipartite_shortcut=False).value
        if closed != searched:
            failures.append(f"Q{n}: search {searched} vs closed form {closed}")
    _finish(1, "hypercube closed form", failures, t0, 60)


def test_criterion_02_hypercube_tree_products():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 5):
        for m in range(2, 7):
            for tname, tree in tree_catalog(m):
                rep = check_theorem_1(n, tree, tname)
                if rep.verdict != "pass":
                    failures.append(
                        f"Q{n} x {tname}: predicted {rep.predicted} computed {rep.computed}"
                    )
    _finish(2, "hypercube x tree products", failures, t0, 120)


def test_criterion_03_hypercube_even_cycle_products():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 5):
        for k in range(2, 5):
            rep = check_corollary_3_4(n, k)
            if rep.verdict != "pass":
                failures.append(
                    f"Q{n} x C{2 * k}: predicted {rep.predicted} computed {rep.computed}"
                )
    _finish(3, "hypercube x even cycle products", failures, t0, 60)


def test_criterion_04_corona_with_at2_graphs():
    t0 = time.monotonic()
    failures = []
    attachments = [("K2", complete(2)), ("P3", path(3)), ("P4", path(4)), ("C4", cycle(4))]
    for n in (1, 2):
        for name, g2 in attachments:
            res = corona_at(hypercube(n), g2)
            chi = chromatic_number(corona(hypercube(n), g2))
            if chi < 3:
                failures.append(f"Q{n} o {name}: triangle lower bound missing, chi={chi}")
            if res.value != 3:
                failures.append(f"Q{n} o {name}: AT {res.lo}..{res.hi}, expected 3")
            if res.certificate.orientation.max_outdegree() > 2:
                failures.append(f"Q{n} o {name}: certificate outdegree > 2")
    for n in range(3, 7):
        for name, g2 in attachments:
            res = corona_at(hypercube(n), g2)
            expected = ceil_half(n) + 1
            if res.value != expected:
                failures.append(f"Q{n} o {name}: AT {res.lo}..{res.hi}, expected {expected}")
            if res.lower_bound_reason != "subgraph":
                failures.append(
                    f"Q{n} o {name}: lower bound via {res.lower_bound_reason}, "
                    "expected the subgraph pinch"
                )
    _finish(4, "corona with AT=2 attachments", failures, t0, 120)


def test_criterion_05_corona_with_cycles():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 5):
        for k in (2, 3):
            rep = check_corollary_3_8(n, k)
            if rep.verdict != "pass":
                failures.append(
                    f"Q{n} o C{2 * k}: predicted {rep.predicted} computed {rep.computed}"
                )
    for n in range(1, 5):
        for k in (1, 2, 3):
            odd = 2 * k + 1
            chi = chromatic_number(corona(hypercube(n), cycle(odd)))
            if chi != 4:
                failures.append(f"chi(Q{n} o C{odd}) = {chi}, expected 4")
            rep = check_lemma_3_9(n, k)
            if rep.verdict != "pass":
                failures.append(
                    f"Q{n} o C{odd}: predicted {rep.predicted} computed {rep.computed}"
                )
    for n in (5, 6):
        for k in (1, 2):
            rep = check_lemma_3_9(n, k)
            if rep.verdict != "pass":
                failures.append(
                    f"Q{n} o C{2 * k + 1}: predicted {rep.predicted} computed {rep.computed}"
                )
    _finish(5, "corona with even/odd cycles", failures, t0, 300)


def test_criterion_06_corona_chromatic_formula():
    t0 = time.monotonic()
    failures = []
    fig = check_lemma_3_5(cycle(3), cycle(4), "C3", "C4")
    if (fig.predicted, fig.computed) != ("3", "3"):
        failures.append(f"C3 o C4: {fig.computed} != 3")
    fig = check_lemma_3_5(cycle(4), cycle(3), "C4", "C3")
    if (fig.predicted, fig.computed) != ("4", "4"):
        failures.append(f"C4 o C3: {fig.computed} != 4")
    for n1, g1, n2, g2 in random_corona_pairs(20, max_vertices=8, seed=20):
        rep = check_lemma_3_5(g1, g2, n1, n2)
        if rep.verdict != "pass":
            failures.append(
                f"{n1} o {n2}: predicted {rep.predicted} computed {rep.computed}"
            )
    _finish(6, "corona chromatic piecewise formula", failures, t0, 120)


def test_criterion_07a_toroidal_c3c3_refutation():
    t0 = time.monotonic()
    failures = []
    res = at_exact(cartesian_product(cycle(3), cycle(3)))
    if res.value != 4:
        failures.append(f"AT(C3 x C3) = {res.lo}..{res.hi}, expected 4")
    elif res.lower_bound_reason != "exhaustive-refutation":
        failures.append(
            f"C3 x C3 resolved via {res.lower_bound_reason}, expected level-3 refutation"
        )
    _finish("7a", "toroidal C3xC3 refutation", failures, t0, 600)


def test_criterion_07b_toroidal_rest():
    t0 = time.monotonic()
    failures = []
    res = at_exact(cartesian_product(cycle(3), cycle(4)))
    if res.value != 3:
        failures.append(f"AT(C3 x C4) = {res.lo}..{res.hi}, expected 3")
    res = at_bipartite(cartesian_product(cycle(4), cycle(4)))
    if res.value != 3:
        failures.append(f"AT(C4 x C4) = {res.value}, expected 3")
    _finish("7b", "toroidal C3xC4 and C4xC4", failures, t0, 60)


def test_criterion_08_engine_cross_validation():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(808)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7]))
        if g.m > 16:
            continue
        d = random_orientation(rng, g)
        tally = eulerian_tally_enumerate(d)
        coef = eulerian_diff_poly(d)
        if abs(coef) != abs(tally.diff):
            failures.append(
                f"instance {done}: enumeration {tally.diff} vs polynomial {coef}"
            )
        done += 1
    _finish(8, "enumeration vs polynomial on 200 orientations", failures, t0, 60)


def test_criterion_09_one_way_cut_product_law(monkeypatch):
    t0 = time.monotonic()
    failures = []
    rng = random.Random(909)
    monkeypatch.setattr(eulerian, "ENUM_CAP", 28)
    done = 0
    while done < 100:
        g1 = random_graph(rng, rng.randint(2, 6), 0.55)
        g2 = random_graph(rng, rng.randint(2, 6), 0.55)
        if g1.m > 12 or g2.m > 12:
            continue
        n1 = g1.n
        vertices = [f"L{v}" for v in range(n1)] + [f"R{v}" for v in range(g2.n)]
        edges = list(g1.edges) + [(n1 + a, n1 + b) for a, b in g2.edges]
        cross = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randrange(n1)
            b = n1 + rng.randrange(g2.n)
            if (a, b) not in cross:
                cross.append((a, b))
        whole = Graph(vertices, edges + cross)
        tails = [e[rng.randint(0, 1)] for e in g1.edges]
        tails += [n1 + e[rng.randint(0, 1)] for e in g2.edges]
        tails += [a for a, _ in cross]  # every cross arc leaves side 1
        d = orient(whole, tails)
        rep = one_way_cut_check(d, range(n1), range(n1, whole.n))
        if not (rep == OneWayCutReport(True) and rep.product_ok):
            failures.append(f"instance {done}: {rep}")
        if crossing_arcs(d, range(n1))[1]:
            failures.append(f"instance {done}: an arc enters side 1")
        # the reference route: tally each side's induced orientation, and d whole
        diff_left, diff_right, diff_whole = cut_reference(d, range(n1))
        if diff_left * diff_right != diff_whole:
            failures.append(
                f"instance {done}: {diff_left} * {diff_right} != {diff_whole}"
            )
        # one cross arc turned back makes the split two-way
        if cross:
            k = len(tails) - len(cross)
            back = orient(whole, tails[:k] + [cross[0][1]] + tails[k + 1:])
            if one_way_cut_check(back, range(n1), range(n1, whole.n)) != OneWayCutReport(False):
                failures.append(f"instance {done}: a turned-back cross arc kept one_way")
            if crossing_arcs(back, range(n1))[1] != [cross[0][::-1]]:
                failures.append(f"instance {done}: crossing arcs of the turned-back split")
        done += 1
    _finish(9, "one-way cut diff product law on 100 digraphs", failures, t0, 60)


def test_criterion_10_bipartite_consistency(monkeypatch):
    t0 = time.monotonic()
    failures = []
    for name, g in corpus():
        if g.m > 14 or bipartition(g) is None:
            continue
        closed = at_bipartite(g).value
        searched = at_exact(g, bipartite_shortcut=False).value
        if closed != searched:
            failures.append(f"{name}: search {searched} vs closed form {closed}")
    rng = random.Random(1010)
    monkeypatch.setattr(eulerian, "ENUM_CAP", 24)
    done = 0
    while done < 50:
        g = random_bipartite_graph(rng, max_side=5, max_edges=24)
        d = random_orientation(rng, g)
        if eulerian_tally_enumerate(d).diff == 0:
            failures.append(f"bipartite orientation {done} has diff 0: {d.arcs}")
        done += 1
    _finish(10, "bipartite closed-form consistency", failures, t0, 300)


def test_criterion_11_density_oracle():
    t0 = time.monotonic()
    failures = []
    for name, g in corpus():
        if g.n > 14:
            continue
        reversal = max_density(g)
        brute = max_density_bruteforce(g)
        if reversal.density != brute.density:
            failures.append(f"{name}: path reversal {reversal.density} vs brute {brute.density}")
        for label, wit in (("path reversal", reversal), ("brute", brute)):
            if g.m and induced_edge_count(g, wit.witness) != wit.density * len(wit.witness):
                failures.append(f"{name}: {label} witness does not induce its density")
    _finish(11, "density path reversal vs brute-force oracle", failures, t0, 120)


# --- criterion 12: the choosability remarks -------------------------------


def _gap_cases():
    """(name, graph, AT solver, chi, AT, asserted relation): chi and AT as the
    paper's statements give them (Lemma 3.2, Theorem 1 / Corollary 3.4, the
    corona rule with Lemma 3.5, Lemma 3.9), never read from the solver under
    test. The relation is `<` where those values give the gap, and on Q2,
    where the remark is asserted as printed against the proven 2 = 2 and fails
    (see the module docstring); `==` where the equality is asserted and
    re-checked by routes that no other test takes."""
    q2, q3 = hypercube(2), hypercube(3)
    cases = [("Q2", q2, lambda: at_bipartite(q2), 2, 2, "<")]
    for n in range(3, 7):
        g = hypercube(n)
        cases.append((f"Q{n}", g, lambda g=g: at_bipartite(g), 2, ceil_half(n) + 1, "<"))
    g = cartesian_product(hypercube(2), path(4))
    cases.append(("Q2 x T4", g, lambda g=g: at_bipartite(g), 2, 3, "<"))
    g = cartesian_product(hypercube(2), cycle(4))
    cases.append(("Q2 x C4", g, lambda g=g: at_bipartite(g), 2, 3, "<"))
    cases.append(
        ("Q3 o P3", corona(q3, path(3)), lambda: corona_at(q3, path(3)), 3, 3, "==")
    )
    cases.append(
        ("Q3 o C3", corona(q3, cycle(3)), lambda: corona_at(q3, cycle(3)), 4, 4, "==")
    )
    return cases


_GAP_CASES = _gap_cases()


@pytest.mark.parametrize(
    "name,graph,solve,chi_expected,at_expected,relation",
    _GAP_CASES,
    ids=[c[0] for c in _GAP_CASES],
)
def test_criterion_12_chromatic_at_gap(
    name, graph, solve, chi_expected, at_expected, relation
):
    t0 = time.monotonic()
    failures = []
    at_result = solve()
    chi = chromatic_number(graph)
    at = at_result.value
    if not at_result.is_exact:
        failures.append(f"AT not exact: {at_result.lo}..{at_result.hi}")
    if chi != chi_expected:
        failures.append(f"chi = {chi}, expected {chi_expected}")
    if at != at_expected:
        failures.append(f"AT = {at}, expected {at_expected}")
    gap = at is not None and chi < at
    if relation == "<" and not gap:
        failures.append(f"required chi < AT, computed chi={chi}, AT={at}")
    if relation == "==":
        # The upper side AT <= chi, re-checked by the coefficient engine on
        # the corona certificate rather than by the route that built it.
        d = at_result.certificate.orientation
        if d.graph.edges != graph.edges:
            failures.append("certificate orients another graph")
        if d.max_outdegree() != chi_expected - 1:
            failures.append(
                f"certificate outdegree {d.max_outdegree()}, expected {chi_expected - 1}"
            )
        if diff_coefficient(d) == 0:
            failures.append("certificate coefficient is 0")
        # The program's own chi == AT verdict, through the generic solver
        # (chromatic lower bound, level search, degeneracy certificate)
        # instead of the corona rule.
        verdict = chromatic_at_choosable(graph)
        if verdict != (chi_expected, at_expected, True):
            failures.append(f"generic solver: {verdict}, expected chi = AT = {at_expected}")
    remark = "holds" if gap else "contradicted"
    _finish(
        f"12[{name}]",
        f"chi {relation} AT, chi={chi} AT={at}; remark chi < AT {remark}",
        failures,
        t0,
        10,
    )


def test_criterion_12_choosable_instances():
    t0 = time.monotonic()
    failures = []
    for rep in (
        check_corollary_3_7(complete(2), cycle(3), "K2", "C3"),
        check_corollary_3_7(path(3), complete(3), "P3", "K3"),
        check_corollary_3_7(complete(2), cycle(4), "K2", "C4"),
    ):
        if rep.verdict != "pass":
            failures.append(f"{rep.instance}: {rep.computed}, expected {rep.predicted}")
    _finish("12-choosable", "chromatic-AT choosable instances", failures, t0, 120)
