"""Claim checkers: one per published formula, each reducing to solver calls.

Every checker computes its prediction from the printed piecewise formula (no
per-instance hard-coding) and compares it with solver output:

  * pass - the computed value (or the exactly-provable bracket) matches the
    prediction;
  * fail - the computed value or bracket excludes the prediction;
  * inconclusive - the solvers only produced a bracket wider than the
    prediction (budget limitation, never counted as a contradiction).

Pinching is the proof mode for coronas too large to search exhaustively: a
lower bound (chromatic number or a known-subgraph AT value) must meet the
upper bound from the constructed corona orientation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .atsolver import (
    ATCertificate,
    ATResult,
    at_bipartite,
    at_exact,
    chromatic_number,
)
from .construct import corona_orientation
from .density import max_density  # evidence only; bench/test_bench.py pins this name
from .errors import CapacityError, ProofObligationError
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete,
    complete_bipartite,
    corona,
    cycle,
    hypercube,
    is_tree,
    path,
    star,
    tree_from_pruefer,
)
from .options import DEFAULT_OPTIONS, SolverOptions


@dataclass
class ClaimReport:
    """Self-contained verdict for one claim instance."""

    claim: str
    instance: str
    predicted: str
    computed: str
    verdict: str
    evidence: str
    millis: float = field(compare=False, default=0.0)


def ceil_half(n: int) -> int:
    return (n + 1) // 2


def _bracket_verdict(predicted: set[int], lo: int, hi: int) -> str:
    computed = set(range(lo, hi + 1))
    if not computed & predicted:
        return "fail"
    if computed <= predicted:
        return "pass"
    return "inconclusive"


def _fmt_bracket(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"[{lo}, {hi}]"


def _report(t0: float, *fields: str) -> ClaimReport:
    """The report with the given claim .. evidence fields, timed from t0."""
    return ClaimReport(*fields, millis=(time.perf_counter() - t0) * 1000.0)


# ---------------------------------------------------------------------------
# Corona AT by pinching
# ---------------------------------------------------------------------------


def _exact_at(g: Graph, options: SolverOptions) -> ATResult:
    result = at_exact(g, options)
    if not result.is_exact:
        raise CapacityError(
            f"need exact AT of a factor but got bracket [{result.lo}, {result.hi}]"
        )
    return result


def corona_at(g1: Graph, g2: Graph, options: SolverOptions = DEFAULT_OPTIONS) -> ATResult:
    """AT of corona(g1, g2) by pinching the factors' exact AT results."""
    return _pinch(g1, _exact_at(g1, options), g2, _exact_at(g2, options), options)[0]


def _pinch(
    g1: Graph, r1: ATResult, g2: Graph, r2: ATResult, options: SolverOptions
) -> tuple[ATResult, Optional[int]]:
    """AT of corona(g1, g2) from the factors' exact results, and chi of the
    corona (None when over budget).

    Upper bound: the R1/R2/R3 orientation built from the factors' own AT
    certificates; its diff is diff(d1) * diff(d2)^m across the copies/hub
    one-way cut, nonzero because both factor diffs are. The factor
    certificates carry |diff| as already re-checked by at_exact or
    at_bipartite; a magnitude is None only under the bipartite closed form.
    Lower bound: the factors are subgraphs, and chi of the corona when
    within budget.
    """
    d1 = r1.certificate.orientation
    d2 = r2.certificate.orientation
    oriented, _recipe = corona_orientation(g1, d1, g2, d2)
    mag1 = r1.certificate.diff_magnitude
    mag2 = r2.certificate.diff_magnitude
    if mag1 is not None and mag2 is not None:
        magnitude: Optional[int] = mag1 * mag2**g1.n
        method = "product-law"
    else:
        magnitude = None
        method = "product-law+closed-form"
    level = oriented.max_outdegree() + 1
    cert = ATCertificate(level, oriented, magnitude, method)

    lower, reason = max(r1.value, r2.value), "subgraph"
    try:
        chi = chromatic_number(oriented.graph, options)
    except CapacityError:
        chi = None
    if chi is not None and chi > lower:
        lower, reason = chi, "chromatic"
    if lower > level:
        raise ProofObligationError(f"corona lower bound {lower} exceeds level {level}")
    return ATResult(lower, level, cert, reason), chi


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _closed_form_row(
    claim: str, instance: str, predicted: int, g: Graph, result: ATResult, evidence: str,
    search: Optional[str], options: SolverOptions, t0: float,
) -> ClaimReport:
    """Row for a closed-form AT value, cross-checked by the level search on g
    unless `search` (the evidence label of that cross-check) is None."""
    computed, verdict = str(result.value), "pass" if result.value == predicted else "fail"
    if search is not None:
        cross = at_exact(g, options, bipartite_shortcut=False)
        evidence += f"; {search}: {_fmt_bracket(cross.lo, cross.hi)}"
        if cross.value != result.value:
            computed, verdict = f"{result.value} vs search {cross.value}", "fail"
    return _report(t0, claim, instance, str(predicted), computed, verdict, evidence)


def check_lemma_3_1(
    g: Graph, name: str, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """d-regular bipartite graphs: AT = ceil(d/2) + 1."""
    t0 = time.perf_counter()
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError(f"{name} is not regular")
    if bipartition(g) is None:
        raise ValueError(f"{name} is not bipartite")
    result = at_bipartite(g, options)
    evidence = f"certificate maxout {result.certificate.orientation.max_outdegree()}"
    search = "exhaustive search agrees" if g.m <= options.search_edge_cap else None
    return _closed_form_row(
        "lemma3.1", name, ceil_half(degs.pop()) + 1, g, result, evidence, search, options, t0
    )


def check_lemma_3_2(n: int, options: SolverOptions = DEFAULT_OPTIONS) -> ClaimReport:
    """Hypercubes: AT(Q_n) = ceil(n/2) + 1."""
    t0 = time.perf_counter()
    q = hypercube(n)
    result = at_bipartite(q, options)
    evidence = f"density {max_density(q).density}"
    search = "exhaustive search" if n <= 3 else None
    return _closed_form_row(
        "lemma3.2", f"Q{n}", ceil_half(n) + 1, q, result, evidence, search, options, t0
    )


def check_theorem_1(
    n: int,
    tree: Graph,
    tree_name: str = "T",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """AT(Q_n x T_m): ceil(n/2)+1 when n odd and m = 2, else ceil(n/2)+2."""
    t0 = time.perf_counter()
    if not is_tree(tree) or tree.n < 2:
        raise ValueError(f"{tree_name} is not a tree on >= 2 vertices")
    m = tree.n
    predicted = ceil_half(n) + 1 if (n % 2 == 1 and m == 2) else ceil_half(n) + 2
    g = cartesian_product(hypercube(n), tree)
    result = at_bipartite(g, options)
    verdict = "pass" if result.value == predicted else "fail"
    least_out = result.certificate.orientation.max_outdegree()
    evidence = f"|V|={g.n} |E|={g.m} least max outdegree {least_out}"
    return _report(
        t0, "theorem1", f"Q{n} x {tree_name}", str(predicted), str(result.value), verdict,
        evidence,
    )


def check_corollary_3_4(
    n: int, k: int, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """AT(Q_n x C_2k) = ceil(n/2) + 2."""
    t0 = time.perf_counter()
    predicted = ceil_half(n) + 2
    g = cartesian_product(hypercube(n), cycle(2 * k))
    result = at_bipartite(g, options)
    verdict = "pass" if result.value == predicted else "fail"
    return _report(
        t0, "corollary3.4", f"Q{n} x C{2 * k}", str(predicted), str(result.value), verdict,
        f"|V|={g.n} |E|={g.m}",
    )


def check_lemma_3_5(
    g1: Graph,
    g2: Graph,
    name1: str = "G1",
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """chi(g1 o g2) = chi(g1) if chi(g2) < chi(g1), else chi(g2) + 1."""
    t0 = time.perf_counter()
    chi1 = chromatic_number(g1, options)
    chi2 = chromatic_number(g2, options)
    predicted = chi1 if chi2 < chi1 else chi2 + 1
    computed = chromatic_number(corona(g1, g2), options)
    verdict = "pass" if computed == predicted else "fail"
    return _report(
        t0, "lemma3.5", f"{name1} o {name2}", str(predicted), str(computed), verdict,
        f"chi({name1})={chi1} chi({name2})={chi2}",
    )


def check_lemma_3_6(
    g1: Graph,
    g2: Graph,
    name1: str = "G1",
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """AT(g1 o g2) = AT(g1) when AT(g2) < AT(g1), else AT(g2) or AT(g2)+1."""
    t0 = time.perf_counter()
    r1, r2 = _exact_at(g1, options), _exact_at(g2, options)
    at1, at2 = r1.value, r2.value
    predicted = {at1} if at2 < at1 else {at2, at2 + 1}
    result, _chi = _pinch(g1, r1, g2, r2, options)
    bound = max(at1 - 1, at2) + 1
    evidence = (
        f"AT({name1})={at1} AT({name2})={at2}; certificate level {result.hi} "
        f"within rule bound {bound}; lower via {result.lower_bound_reason}"
    )
    verdict = _bracket_verdict(predicted, result.lo, result.hi)
    if result.hi > bound:
        verdict = "fail"
        evidence += "; construction exceeded the outdegree bound"
    pred_str = str(min(predicted)) if len(predicted) == 1 else (
        "{" + ", ".join(str(x) for x in sorted(predicted)) + "}"
    )
    return _report(
        t0, "lemma3.6", f"{name1} o {name2}", pred_str, _fmt_bracket(result.lo, result.hi),
        verdict, evidence,
    )


def check_corollary_3_7(
    g1: Graph,
    g2: Graph,
    name1: str = "G1",
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """If AT(g2) >= AT(g1) and chi(g2) = AT(g2): chi = AT = AT(g2)+1 on the corona."""
    t0 = time.perf_counter()
    r1, r2 = _exact_at(g1, options), _exact_at(g2, options)
    at1, at2 = r1.value, r2.value
    chi2 = chromatic_number(g2, options)
    if at2 < at1 or chi2 != at2:
        raise ValueError(
            f"hypothesis violated: AT({name2})={at2}, AT({name1})={at1}, chi({name2})={chi2}"
        )
    predicted = at2 + 1
    result, chi = _pinch(g1, r1, g2, r2, options)
    evidence = f"chi(corona)={chi}; AT bracket {_fmt_bracket(result.lo, result.hi)}"
    # chi is in the lower bound, so the bracket alone passes only if chi = AT
    verdict = _bracket_verdict({predicted}, result.lo, result.hi)
    if chi not in (None, predicted):
        verdict = "fail"
    return _report(
        t0, "corollary3.7", f"{name1} o {name2}", f"chi = AT = {predicted}",
        f"chi={chi}, AT={_fmt_bracket(result.lo, result.hi)}", verdict, evidence,
    )


def _hypercube_corona_row(
    claim: str, n: int, g2: Graph, name2: str, r2: ATResult, predicted: int,
    options: SolverOptions, t0: float, show_method: bool = False,
) -> ClaimReport:
    """Bracket row for AT(Q_n o g2) pinched from the factors' exact results."""
    q = hypercube(n)
    result, _chi = _pinch(q, _exact_at(q, options), g2, r2, options)
    evidence = f"lower {result.lo} via {result.lower_bound_reason}; certificate level {result.hi}"
    if show_method:
        evidence += f" ({result.certificate.method})"
    return _report(
        t0, claim, f"Q{n} o {name2}", str(predicted), _fmt_bracket(result.lo, result.hi),
        _bracket_verdict({predicted}, result.lo, result.hi), evidence,
    )


def check_theorem_2(
    n: int,
    g2: Graph,
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """AT(Q_n o g2) with AT(g2) = 2: equals 3 for n <= 2, ceil(n/2)+1 for n > 2."""
    t0 = time.perf_counter()
    if g2.n < 2:
        raise ValueError("the attached graph needs at least 2 vertices")
    r2 = _exact_at(g2, options)
    if r2.value != 2:
        raise ValueError(f"AT({name2}) = {r2.value}, the formula needs 2")
    # AT = 2 forces an edge, which supplies the triangle for the n <= 2 case.
    if g2.m == 0:
        raise ProofObligationError("AT = 2 is impossible for an edgeless graph")
    predicted = 3 if n <= 2 else ceil_half(n) + 1
    return _hypercube_corona_row(
        "theorem2", n, g2, name2, r2, predicted, options, t0, show_method=True
    )


def check_corollary_3_8(
    n: int, k: int, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """AT(Q_n o C_2k) = 3 for n <= 2, ceil(n/2)+1 for n > 2."""
    report = check_theorem_2(n, cycle(2 * k), f"C{2 * k}", options)
    report.claim = "corollary3.8"
    return report


def check_lemma_3_9(
    n: int, k: int, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """AT(Q_n o C_{2k+1}) = 4 for n <= 4, ceil(n/2)+1 for n > 4."""
    t0 = time.perf_counter()
    odd = 2 * k + 1
    if odd < 3:
        raise ValueError("odd cycle needs length >= 3")
    c = cycle(odd)
    predicted = 4 if n <= 4 else ceil_half(n) + 1
    return _hypercube_corona_row(
        "lemma3.9", n, c, f"C{odd}", _exact_at(c, options), predicted, options, t0
    )


def check_toroidal_regression(
    m: int, n: int, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """AT(C_m x C_n): 4 when both factors are odd, 3 otherwise.

    This is the toroidal-grid theorem of Z. Li, Z. Shao, F. Petrov and
    A. Gordeev ("The Alon-Tarsi number of a toroidal grid"); these rows
    regress the solver against it.
    """
    t0 = time.perf_counter()
    predicted = 4 if (m % 2 == 1 and n % 2 == 1) else 3
    g = cartesian_product(cycle(m), cycle(n))
    if bipartition(g) is not None:
        result = at_bipartite(g, options)
        evidence = "bipartite closed form"
    else:
        wide = options.with_(search_edge_cap=max(options.search_edge_cap, g.m))
        result = at_exact(g, wide)
        evidence = f"exhaustive search, lower via {result.lower_bound_reason}"
    verdict = _bracket_verdict({predicted}, result.lo, result.hi)
    return _report(
        t0, "toroidal", f"C{m} x C{n}", str(predicted), _fmt_bracket(result.lo, result.hi),
        verdict, evidence,
    )


def check_chi_product(
    g: Graph,
    h: Graph,
    name1: str = "G",
    name2: str = "H",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """chi(g x h) = max(chi(g), chi(h))."""
    t0 = time.perf_counter()
    chi1 = chromatic_number(g, options)
    chi2 = chromatic_number(h, options)
    predicted = max(chi1, chi2)
    computed = chromatic_number(cartesian_product(g, h), options)
    verdict = "pass" if computed == predicted else "fail"
    return _report(
        t0, "chi-product", f"{name1} x {name2}", str(predicted), str(computed), verdict,
        f"chi({name1})={chi1} chi({name2})={chi2}",
    )


def check_remark_gap(name: str, chi: int, at_result: ATResult) -> ClaimReport:
    """The 'not chromatic-AT choosable' remarks: chi(G) strictly below AT(G),
    from G's chi and AT result.

    Checks the remark as printed. On Q2, Q3 o P3 and Q3 o C3 the paper's own
    lemmas prove chi = AT (2, 3, 4), so those rows report `fail` on purpose.
    Acceptance criterion 12 asserts the proven equality on Q3 o P3 and
    Q3 o C3, and the remark as printed on Q2, where that sub-case fails.
    """
    t0 = time.perf_counter()
    computed = f"chi={chi}, AT={_fmt_bracket(at_result.lo, at_result.hi)}"
    if chi < at_result.lo:
        verdict = "pass"
    elif chi >= at_result.hi:
        verdict = "fail"  # chi <= AT always, so equality: choosable after all
    else:
        verdict = "inconclusive"
    return _report(t0, "remark-gap", name, "chi < AT", computed, verdict, "")


# ---------------------------------------------------------------------------
# Instance catalogs and the default suite
# ---------------------------------------------------------------------------


def tree_catalog(m: int, seed: int = 7, random_count: int = 2) -> list[tuple[str, Graph]]:
    """Deterministic tree sweep for one vertex count: path, star, broom, plus
    seeded random Pruefer trees. Duplicate shapes are dropped by edge set."""
    if m < 2:
        raise ValueError("trees in the catalog need >= 2 vertices")
    out: list[tuple[str, Graph]] = [(f"P{m}", path(m))]
    if m >= 3:
        out.append((f"S{m}", star(m)))
    if m >= 5:
        handle = (m + 1) // 2
        edges = [(i, i + 1) for i in range(handle - 1)]
        edges += [(handle - 1, j) for j in range(handle, m)]
        out.append((f"B{m}", Graph([str(i) for i in range(m)], edges)))
    if m >= 4:
        rng = random.Random(seed * 1000 + m)
        for t in range(random_count):
            seq = [rng.randrange(m) for _ in range(m - 2)]
            out.append((f"R{m}.{t}", tree_from_pruefer(seq)))
    seen: set[frozenset] = set()
    unique = []
    for name, g in out:
        key = g.edge_set()
        if key not in seen:
            seen.add(key)
            unique.append((name, g))
    return unique


def random_corona_pairs(
    count: int, max_vertices: int = 8, seed: int = 11
) -> list[tuple[str, Graph, str, Graph]]:
    """Seeded random (g1, g2) pairs for the corona chi sweep."""
    rng = random.Random(seed)
    pairs = []
    for t in range(count):
        n1 = rng.randint(1, max_vertices)
        edges1 = [
            (i, j) for i in range(n1) for j in range(i + 1, n1) if rng.random() < 0.4
        ]
        n2 = rng.randint(1, max_vertices)
        edges2 = [
            (i, j) for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.4
        ]
        g1 = Graph([str(i) for i in range(n1)], edges1)
        g2 = Graph([str(i) for i in range(n2)], edges2)
        pairs.append((f"A{t}", g1, f"B{t}", g2))
    return pairs


def remark_instances(options: SolverOptions = DEFAULT_OPTIONS) -> list[tuple[str, int, ATResult]]:
    """The instances quoted by the non-choosability remarks, each with its chi
    and its AT computed by the route appropriate to its family. A corona's
    chi is the one its pinch computed."""
    graphs = {f"Q{n}": hypercube(n) for n in range(2, 7)}
    graphs["Q2 x P4"] = cartesian_product(graphs["Q2"], path(4))
    graphs["Q2 x C4"] = cartesian_product(graphs["Q2"], cycle(4))
    out = [
        (name, chromatic_number(g, options), at_bipartite(g, options))
        for name, g in graphs.items()
    ]
    q3 = graphs["Q3"]
    r3 = _exact_at(q3, options)
    for name, g2 in (("Q3 o P3", path(3)), ("Q3 o C3", cycle(3))):
        result, chi = _pinch(q3, r3, g2, _exact_at(g2, options), options)
        if chi is None:  # over budget in the pinch: raise its CapacityError here
            chi = chromatic_number(result.certificate.orientation.graph, options)
        out.append((name, chi, result))
    return out


def run_suite(
    claims: Optional[Sequence[str]] = None,
    options: SolverOptions = DEFAULT_OPTIONS,
    *,
    n_range: Optional[Sequence[int]] = None,
    k_range: Optional[Sequence[int]] = None,
    toroidal_max: int = 4,
    pair_count: int = 8,
    seed: int = 11,
) -> list[ClaimReport]:
    """Run the selected claims (all by default) over their default instance
    sweeps; reports come back in deterministic order."""
    wanted = None if claims is None else {c.lower() for c in claims}

    def want(name: str) -> bool:
        return wanted is None or any(w in name for w in wanted)

    reports: list[ClaimReport] = []
    if want("lemma3.1"):
        for name, g in [
            ("K3,3", complete_bipartite(3, 3)),
            ("C6", cycle(6)),
            ("Q2", hypercube(2)),
            ("Q4", hypercube(4)),
        ]:
            reports.append(check_lemma_3_1(g, name, options))
    if want("lemma3.2"):
        for n in n_range or range(1, 7):
            reports.append(check_lemma_3_2(n, options))
    if want("theorem1"):
        for n in n_range or range(1, 4):
            for m in range(2, 6):
                for tname, tree in tree_catalog(m, seed):
                    reports.append(check_theorem_1(n, tree, tname, options))
    if want("corollary3.4"):
        for n in n_range or range(1, 4):
            for k in k_range or range(2, 4):
                if k >= 2:  # C_2k needs at least 4 vertices
                    reports.append(check_corollary_3_4(n, k, options))
    if want("lemma3.5"):
        reports.append(check_lemma_3_5(cycle(3), cycle(4), "C3", "C4", options))
        reports.append(check_lemma_3_5(cycle(4), cycle(3), "C4", "C3", options))
        reports.append(check_lemma_3_5(complete(2), Graph(["0"], []), "K2", "K1", options))
        for n1, g1, n2, g2 in random_corona_pairs(pair_count, seed=seed):
            reports.append(check_lemma_3_5(g1, g2, n1, n2, options))
    if want("lemma3.6"):
        reports.append(check_lemma_3_6(cycle(4), complete(2), "C4", "K2", options))
        reports.append(check_lemma_3_6(cycle(5), Graph(["0"], []), "C5", "K1", options))
        reports.append(check_lemma_3_6(hypercube(2), path(4), "Q2", "P4", options))
    if want("corollary3.7"):
        reports.append(check_corollary_3_7(complete(2), cycle(3), "K2", "C3", options))
        reports.append(check_corollary_3_7(path(3), complete(3), "P3", "K3", options))
        reports.append(check_corollary_3_7(complete(2), cycle(4), "K2", "C4", options))
    if want("theorem2"):
        for n in n_range or range(1, 5):
            for name, g2 in [
                ("K2", complete(2)),
                ("P3", path(3)),
                ("P4", path(4)),
                ("C4", cycle(4)),
            ]:
                reports.append(check_theorem_2(n, g2, name, options))
    if want("corollary3.8"):
        for n in n_range or range(1, 4):
            for k in k_range or range(2, 4):
                if k >= 2:
                    reports.append(check_corollary_3_8(n, k, options))
    if want("lemma3.9"):
        for n in n_range or range(1, 6):
            for k in k_range or range(1, 3):
                reports.append(check_lemma_3_9(n, k, options))
    if want("toroidal"):
        for m in range(3, toroidal_max + 1):
            for n in range(m, toroidal_max + 1):
                reports.append(check_toroidal_regression(m, n, options))
    if want("chi-product"):
        reports.append(check_chi_product(complete(2), cycle(5), "K2", "C5", options))
        reports.append(check_chi_product(cycle(3), cycle(3), "C3", "C3", options))
        reports.append(check_chi_product(hypercube(2), hypercube(2), "Q2", "Q2", options))
    if want("remark-gap"):
        for name, chi, at_result in remark_instances(options):
            reports.append(check_remark_gap(name, chi, at_result))
    return reports
