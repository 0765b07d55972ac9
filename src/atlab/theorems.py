"""Claim checkers: one per published formula, each reducing to solver calls.

Every checker computes its prediction from the printed piecewise formula (no
per-instance hard-coding) and compares it with solver output. One rule,
`_row`, judges a predicted value (or set) against a computed bracket, a
computed value v being [v, v]:

  * pass - the bracket lies inside the prediction;
  * fail - the bracket excludes the prediction;
  * inconclusive - the bracket is wider than the prediction (budget
    limitation, never counted as a contradiction).

Closed-form, corollary 3.7 and remark-gap rows keep their own text.

Pinching is the proof mode for coronas G o H too large to search
exhaustively: a lower bound (a known-subgraph AT value, then chi of the cone
K1 + H, a hub with its copy of H, in tie order) must meet the upper bound,
the level of the corona orientation that rules R1-R3 build from the
factors' certificates. That level depends on the factors alone, so
`_corona_rule` reads it off them, and takes only the factors' results,
reading each factor graph off its certificate orientation. The bracket rows
(lemma 3.6, theorem 2, corollary 3.7, corollary 3.8, lemma 3.9, and the
remark-gap coronas) take lo, hi and the lower bound's reason from the rule
and build no orientation. Only `corona_at`, which returns a certificate,
builds the corona orientation, checks its level against the rule and joins
the bracket with `atsolver.bracket`. The cone term comes from H's own
chromatic term, so the rule colors nothing; the rows that report chi of a
corona (lemma 3.5, corollary 3.7, remark-gap) build the corona with
`corona` and color it themselves, and corollary 3.7 falls back on the cone
bound when that coloring is over budget.

One `run_suite` call shares four things between its checks, each through
`_shared(key, make)`: the factor results of `_exact_at`, keyed by
(graph, options), the level-search cross-checks of `_closed_form_row`, keyed
by ("search", graph, options), chromatic numbers, keyed by ("chi", graph),
and the hypercubes Q_n, keyed by n. Chi is a function of the graph alone, so
its key, `_chromatic` and the chi rows (`check_lemma_3_5`,
`check_chi_product`) take no options; nor do the rows that solve by
`at_bipartite` alone (`check_theorem_1`, `check_corollary_3_4`), since the
closed form searches nothing. `_chromatic` is the one reader of chi,
and `_exact_at` gives it the chi a solved result holds. Coronas Q_n o H and
products with Q_n recur across Lemma 3.2, Theorem 1, Corollary 3.4,
Theorem 2, Corollary 3.8 and Lemma 3.9, and Q2 and Q4 are Lemma 3.1
instances too, so a default run solves, searches and colors each graph and
builds each hypercube once. Nothing else is kept: reports,
and the products and coronas that no row colors, are made afresh. Memory
stays flat (peak RSS of `run_suite(n_range=range(1, 10))` is 23 MB, where
keeping every solver result took 84 MB). The memo is cleared when the call
returns or raises; a check called on its own solves afresh.

`run_suite` times each check and sets its `ClaimReport.millis`; a check
called on its own leaves it 0.0. The checks are not re-exported from
`atlab`: import them from this module.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .atsolver import (
    ATCertificate,
    ATResult,
    at_bipartite,
    at_exact,
    bracket,
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

T = TypeVar("T")


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


def _row(
    claim: str, instance: str, predicted: set[int], lo: int, hi: int, evidence: str
) -> ClaimReport:
    """The row judging the computed bracket [lo, hi] (a value v is [v, v])
    against the predicted value, or set of values."""
    shown = ", ".join(map(str, sorted(predicted)))
    shown = shown if len(predicted) == 1 else "{" + shown + "}"
    verdict = _bracket_verdict(predicted, lo, hi)
    return ClaimReport(claim, instance, shown, _fmt_bracket(lo, hi), verdict, evidence)


# ---------------------------------------------------------------------------
# Corona AT by pinching
# ---------------------------------------------------------------------------


# What the running `run_suite` call shares (see the module docstring); None
# outside a call. Only `_shared` and `run_suite` touch it. `at_exact`,
# `chromatic_number` and `hypercube` are looked up in this module at call
# time, so a rebinding of any of them still sees every call that reaches it.
_memo: Optional[dict] = None


def _shared(key: object, make: Callable[[], T]) -> T:
    """make(), kept under key for the rest of the running `run_suite` call."""
    if _memo is None:
        return make()
    if key not in _memo:
        _memo[key] = make()
    return _memo[key]


def _exact_at(g: Graph, options: SolverOptions) -> ATResult:
    def solve() -> ATResult:
        result = at_exact(g, options)
        chi, why = _chi_term(result)
        if why == "chromatic":  # feeds `_chromatic`
            _shared(("chi", g), lambda: chi)
        return result

    result = _shared((g, options), solve)
    if not result.is_exact:
        raise CapacityError(
            f"need exact AT of a factor but got bracket [{result.lo}, {result.hi}]"
        )
    return result


def _chi_term(result: ATResult) -> tuple[int, str]:
    """A solver result's chromatic term: chi, or the odd-cycle 3."""
    return next(t for t in result.terms if t[1] in ("chromatic", "odd-cycle"))


def _hypercube(n: int) -> Graph:
    return _shared(n, lambda: hypercube(n))


def _chromatic(g: Graph) -> int:
    return _shared(("chi", g), lambda: chromatic_number(g))


def corona_at(g1: Graph, g2: Graph, options: SolverOptions = DEFAULT_OPTIONS) -> ATResult:
    """AT of corona(g1, g2) by pinching the factors' exact AT results: the
    `_corona_rule` bracket, certified by the corona orientation that rules
    R1-R3 build from the factors' certificates, the one such build here.
    Raises ProofObligationError unless its max outdegree + 1 is the rule's
    level."""
    r1, r2 = _exact_at(g1, options), _exact_at(g2, options)
    rule = _corona_rule(r1, r2)
    d1, d2 = r1.certificate.orientation, r2.certificate.orientation
    oriented, _kind = corona_orientation(g1, d1, g2, d2)
    built = oriented.max_outdegree() + 1
    if built != rule.level:
        raise ProofObligationError(
            f"corona orientation has level {built}, the corona rule gives {rule.level}"
        )
    return bracket(rule.terms, ATCertificate(rule.level, oriented, rule.magnitude, rule.method))


class _CoronaRule(NamedTuple):
    """The pinch's numbers for corona(g1, g2), read off the factor results."""

    terms: tuple[tuple[int, str], ...]
    lo: int
    reason: str
    level: int
    magnitude: Optional[int]
    method: str


def _corona_rule(r1: ATResult, r2: ATResult) -> _CoronaRule:
    """The bracket that pinches AT of corona(g1, g2) from the factors' exact
    results, each factor graph read off its result's certificate orientation.

    Upper bound: the level of the R1/R2/R3 orientation built from the
    factors' own AT certificates d1 and d2. Hub i keeps outdeg_d1(i) and copy
    vertex (i, j) gets outdeg_d2(j) + 1, so the level is
    max(maxout(d1), maxout(d2) + 1) + 1, or maxout(d1) + 1 when g2 has no
    vertex. Its diff is diff(d1) * diff(d2)^m across the copies/hub one-way
    cut, nonzero because both factor diffs are. The factor certificates
    carry |diff| as already re-checked by at_exact or at_bipartite; a
    magnitude is None only under the bipartite closed form.
    Lower bound: the factors are subgraphs, and, while they leave the
    bracket open, the cone K1 + g2 (a hub with its copy of g2): its apex
    sees all of g2, so it needs chi(g2) + 1 colors. chi of the whole corona
    is max(chi(g1), chi(g2) + 1) and chi(g1) <= AT(g1), so coloring the
    corona would prove no more. The cone term is chi(g2) + 1 from r2's
    chromatic term, or (4, "odd-wheel") where r2 holds only g2's odd cycle.
    An empty g2 leaves the corona g1 at level AT(g1), so the bracket is
    closed and takes no cone term. Raises ProofObligationError, as
    `atsolver.bracket` does, when a lower term exceeds the level.
    """
    d1 = r1.certificate.orientation
    d2 = r2.certificate.orientation
    m = d1.graph.n
    if m == 0:
        raise ValueError("corona base graph must be nonempty")
    level = d1.max_outdegree() + 1
    if d2.graph.n:
        level = max(level, d2.max_outdegree() + 2)
    mag1 = r1.certificate.diff_magnitude
    mag2 = r2.certificate.diff_magnitude
    if mag1 is not None and mag2 is not None:
        magnitude: Optional[int] = mag1 * mag2**m
        method = "product-law"
    else:
        magnitude = None
        method = "product-law+closed-form"

    lower = max(r1.value, r2.value)
    terms = [(lower, "subgraph")]
    if lower < level:
        chi2, why = _chi_term(r2)
        terms.append((chi2 + 1, why) if why == "chromatic" else (4, "odd-wheel"))
    lo, reason = max(terms, key=itemgetter(0))
    if lo > level:
        raise ProofObligationError(
            f"{reason} lower bound {lo} exceeds corona rule level {level} ({method})"
        )
    return _CoronaRule(tuple(terms), lo, reason, level, magnitude, method)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _closed_form_row(
    claim: str, instance: str, predicted: int, g: Graph, result: ATResult, evidence: str,
    options: SolverOptions,
) -> ClaimReport:
    """Row for the closed-form AT result of bipartite g, cross-checked by the
    level search exactly when g is within search_edge_cap; the evidence shows
    what the search computed. A search cut short by the time budget gives a
    bracket, which fails the row only when it excludes the closed-form
    value. Within a `run_suite` call each (graph, options) is searched once."""
    computed, verdict = str(result.value), _bracket_verdict({predicted}, result.lo, result.hi)
    if g.m <= options.search_edge_cap:
        cross = _shared(
            ("search", g, options), lambda: at_exact(g, options, bipartite_shortcut=False)
        )
        searched = _fmt_bracket(cross.lo, cross.hi)
        evidence += f"; exhaustive search: {searched}"
        if cross.value != result.value:
            computed = f"{result.value} vs search {searched}"
            if verdict == "pass":
                verdict = _bracket_verdict({result.value}, cross.lo, cross.hi)
    return ClaimReport(claim, instance, str(predicted), computed, verdict, evidence)


def check_lemma_3_1(
    g: Graph, name: str, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """d-regular bipartite graphs: AT = ceil(d/2) + 1."""
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError(f"{name} is not regular")
    if bipartition(g) is None:
        raise ValueError(f"{name} is not bipartite")
    result = _exact_at(g, options)
    evidence = f"certificate maxout {result.certificate.orientation.max_outdegree()}"
    return _closed_form_row(
        "lemma3.1", name, ceil_half(degs.pop()) + 1, g, result, evidence, options
    )


def check_lemma_3_2(n: int, options: SolverOptions = DEFAULT_OPTIONS) -> ClaimReport:
    """Hypercubes: AT(Q_n) = ceil(n/2) + 1."""
    q = _hypercube(n)
    result = _exact_at(q, options)
    evidence = f"density {max_density(q).density}"
    return _closed_form_row("lemma3.2", f"Q{n}", ceil_half(n) + 1, q, result, evidence, options)


def check_theorem_1(n: int, tree: Graph, tree_name: str = "T") -> ClaimReport:
    """AT(Q_n x T_m): ceil(n/2)+1 when n odd and m = 2, else ceil(n/2)+2."""
    if not is_tree(tree) or tree.n < 2:
        raise ValueError(f"{tree_name} is not a tree on >= 2 vertices")
    m = tree.n
    predicted = ceil_half(n) + 1 if (n % 2 == 1 and m == 2) else ceil_half(n) + 2
    g = cartesian_product(_hypercube(n), tree)
    result = at_bipartite(g)
    least_out = result.certificate.orientation.max_outdegree()
    evidence = f"|V|={g.n} |E|={g.m} least max outdegree {least_out}"
    return _row("theorem1", f"Q{n} x {tree_name}", {predicted}, result.lo, result.hi, evidence)


def check_corollary_3_4(n: int, k: int) -> ClaimReport:
    """AT(Q_n x C_2k) = ceil(n/2) + 2."""
    predicted = ceil_half(n) + 2
    g = cartesian_product(_hypercube(n), cycle(2 * k))
    result = at_bipartite(g)
    return _row(
        "corollary3.4", f"Q{n} x C{2 * k}", {predicted}, result.lo, result.hi,
        f"|V|={g.n} |E|={g.m}",
    )


def _chi_row(
    claim: str, compose: Callable[[Graph, Graph], Graph], sign: str,
    rule: Callable[[int, int], int], g1: Graph, g2: Graph, name1: str, name2: str,
) -> ClaimReport:
    """Row for chi(compose(g1, g2)) = rule(chi(g1), chi(g2))."""
    chi1 = _chromatic(g1)
    chi2 = _chromatic(g2)
    chi = _chromatic(compose(g1, g2))
    return _row(
        claim, f"{name1} {sign} {name2}", {rule(chi1, chi2)}, chi, chi,
        f"chi({name1})={chi1} chi({name2})={chi2}",
    )


def check_lemma_3_5(
    g1: Graph, g2: Graph, name1: str = "G1", name2: str = "G2"
) -> ClaimReport:
    """chi(g1 o g2) = chi(g1) if chi(g2) < chi(g1), else chi(g2) + 1."""
    return _chi_row("lemma3.5", corona, "o", lambda a, b: a if b < a else b + 1,
                    g1, g2, name1, name2)


def check_lemma_3_6(
    g1: Graph,
    g2: Graph,
    name1: str = "G1",
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """AT(g1 o g2) = AT(g1) when AT(g2) < AT(g1), else AT(g2) or AT(g2)+1."""
    r1, r2 = _exact_at(g1, options), _exact_at(g2, options)
    at1, at2 = r1.value, r2.value
    predicted = {at1} if at2 < at1 else {at2, at2 + 1}
    rule = _corona_rule(r1, r2)
    evidence = (
        f"AT({name1})={at1} AT({name2})={at2}; certificate level {rule.level}; "
        f"lower via {rule.reason}"
    )
    return _row("lemma3.6", f"{name1} o {name2}", predicted, rule.lo, rule.level, evidence)


def check_corollary_3_7(
    g1: Graph,
    g2: Graph,
    name1: str = "G1",
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """If AT(g2) >= AT(g1) and chi(g2) = AT(g2): chi = AT = AT(g2)+1 on the corona."""
    r1, r2 = _exact_at(g1, options), _exact_at(g2, options)
    at1, at2 = r1.value, r2.value
    chi2 = _chromatic(g2)
    if at2 < at1 or chi2 != at2:
        raise ValueError(
            f"hypothesis violated: AT({name2})={at2}, AT({name1})={at1}, chi({name2})={chi2}"
        )
    predicted = at2 + 1
    # AT(g2) >= AT(g1) puts the corona rule's level at AT(g2) + 1, above both
    # factors, so the rule bounds AT by the cone K1 + g2. The row reports chi
    # of the corona itself, so it builds the corona and colors it. Over
    # budget, chi >= the cone term and chi <= AT <= the rule's level, so chi
    # is proved where those meet, and None where they do not.
    rule = _corona_rule(r1, r2)
    lo, hi = rule.lo, rule.level
    try:
        chi: Optional[int] = _chromatic(corona(g1, g2))
        how = ""
    except CapacityError:
        by_cone = lo == hi and rule.reason != "subgraph"
        chi = hi if by_cone else None
        how = " by the cone bound" if chi is not None else ""
    evidence = f"chi(corona)={chi}{how}; AT bracket {_fmt_bracket(lo, hi)}"
    # the row claims chi = AT, so it passes only on a chi it computed or proved
    verdict = _bracket_verdict({predicted}, lo, hi)
    if chi is None and verdict == "pass":
        verdict = "inconclusive"
    elif chi not in (None, predicted):
        verdict = "fail"
    return ClaimReport(
        "corollary3.7", f"{name1} o {name2}", f"chi = AT = {predicted}",
        f"chi={chi}, AT={_fmt_bracket(lo, hi)}", verdict, evidence,
    )


def _hypercube_corona_row(
    claim: str, n: int, name2: str, r2: ATResult, predicted: int,
    options: SolverOptions, show_method: bool = False,
) -> ClaimReport:
    """Bracket row for AT(Q_n o g2) pinched from the factors' exact results."""
    rule = _corona_rule(_exact_at(_hypercube(n), options), r2)
    evidence = f"lower {rule.lo} via {rule.reason}; certificate level {rule.level}"
    if show_method:
        evidence += f" ({rule.method})"
    return _row(claim, f"Q{n} o {name2}", {predicted}, rule.lo, rule.level, evidence)


def check_theorem_2(
    n: int,
    g2: Graph,
    name2: str = "G2",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> ClaimReport:
    """AT(Q_n o g2) with AT(g2) = 2: equals 3 for n <= 2, ceil(n/2)+1 for n > 2."""
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
        "theorem2", n, name2, r2, predicted, options, show_method=True
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
    odd = 2 * k + 1
    if odd < 3:
        raise ValueError("odd cycle needs length >= 3")
    predicted = 4 if n <= 4 else ceil_half(n) + 1
    return _hypercube_corona_row(
        "lemma3.9", n, f"C{odd}", _exact_at(cycle(odd), options), predicted, options
    )


def check_toroidal_regression(
    m: int, n: int, options: SolverOptions = DEFAULT_OPTIONS
) -> ClaimReport:
    """AT(C_m x C_n): 4 when both factors are odd, 3 otherwise.

    This is the toroidal-grid theorem of Z. Li, Z. Shao, F. Petrov and
    A. Gordeev ("The Alon-Tarsi number of a toroidal grid"); these rows
    regress the solver against it.
    """
    predicted = 4 if (m % 2 == 1 and n % 2 == 1) else 3
    g = cartesian_product(cycle(m), cycle(n))
    # the level search compares its cap only with g.m, so every row searches
    result = at_exact(g, options.with_(search_edge_cap=g.m))
    if bipartition(g) is not None:
        evidence = "bipartite closed form"
    else:
        evidence = f"exhaustive search, lower via {result.lower_bound_reason}"
    return _row("toroidal", f"C{m} x C{n}", {predicted}, result.lo, result.hi, evidence)


def check_chi_product(
    g: Graph, h: Graph, name1: str = "G", name2: str = "H"
) -> ClaimReport:
    """chi(g x h) = max(chi(g), chi(h))."""
    return _chi_row("chi-product", cartesian_product, "x", max, g, h, name1, name2)


def check_remark_gap(name: str, chi: int, lo: int, hi: int) -> ClaimReport:
    """The 'not chromatic-AT choosable' remarks: chi(G) strictly below AT(G),
    from G's chi and the bracket [lo, hi] on its AT.

    Checks the remark as printed. On Q2, Q3 o P3 and Q3 o C3 the paper's own
    lemmas prove chi = AT (2, 3, 4), so those rows report `fail` on purpose.
    Acceptance criterion 12 asserts the proven equality on Q3 o P3 and
    Q3 o C3, and the remark as printed on Q2, where that sub-case fails.
    """
    # chi <= AT always, so a fail means equality: choosable after all
    verdict = _bracket_verdict(set(range(chi + 1, hi + 1)), lo, hi)
    return ClaimReport(
        "remark-gap", name, "chi < AT", f"chi={chi}, AT={_fmt_bracket(lo, hi)}", verdict, ""
    )


# ---------------------------------------------------------------------------
# Instance catalogs and the default suite
# ---------------------------------------------------------------------------


def tree_catalog(m: int, seed: int = 7) -> list[tuple[str, Graph]]:
    """Deterministic tree sweep for one vertex count: path, star, broom, plus
    two seeded random Pruefer trees. A tree whose labelled edge set repeats
    an earlier one is dropped; isomorphic trees with different edge sets
    both stay (P3 and S3 are one shape)."""
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
        for t in range(2):
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


def remark_instances(options: SolverOptions = DEFAULT_OPTIONS) -> list[tuple[str, int, int, int]]:
    """The instances quoted by the non-choosability remarks, each with its chi
    and the bracket [lo, hi] on its AT, computed by the route appropriate to
    its family; the coronas' brackets are the corona rule's."""
    cubes = {n: _hypercube(n) for n in range(2, 7)}
    results = [(f"Q{n}", q, _exact_at(q, options)) for n, q in cubes.items()]
    for name, g in (
        ("Q2 x P4", cartesian_product(cubes[2], path(4))),
        ("Q2 x C4", cartesian_product(cubes[2], cycle(4))),
    ):
        results.append((name, g, at_bipartite(g)))
    brackets = [(name, g, r.lo, r.hi) for name, g, r in results]
    r3 = _exact_at(cubes[3], options)
    for name, g2 in (("Q3 o P3", path(3)), ("Q3 o C3", cycle(3))):
        rule = _corona_rule(r3, _exact_at(g2, options))
        brackets.append((name, corona(cubes[3], g2), rule.lo, rule.level))
    return [(name, _chromatic(g), lo, hi) for name, g, lo, hi in brackets]


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
    sweeps; reports come back in deterministic order, each timed in millis.
    The checks share the factor results, cross-check searches and hypercubes
    of this call (see the module docstring)."""
    wanted = None if claims is None else {c.lower() for c in claims}

    def want(name: str) -> bool:
        return wanted is None or any(w in name for w in wanted)

    def sweep(given: Optional[Sequence[int]], default: range) -> Sequence[int]:
        return default if given is None else given

    reports: list[ClaimReport] = []

    def row(check: Callable[..., ClaimReport], *args) -> None:
        t0 = time.perf_counter()
        report = check(*args)
        report.millis = (time.perf_counter() - t0) * 1000.0
        reports.append(report)

    global _memo
    _memo = {}
    try:
        if want("lemma3.1"):
            for name, g in [
                ("K3,3", complete_bipartite(3, 3)),
                ("C6", cycle(6)),
                ("Q2", _hypercube(2)),
                ("Q4", _hypercube(4)),
            ]:
                row(check_lemma_3_1, g, name, options)
        if want("lemma3.2"):
            for n in sweep(n_range, range(1, 7)):
                row(check_lemma_3_2, n, options)
        if want("theorem1"):
            for n in sweep(n_range, range(1, 4)):
                for m in range(2, 6):
                    for tname, tree in tree_catalog(m, seed):
                        row(check_theorem_1, n, tree, tname)
        if want("corollary3.4"):
            for n in sweep(n_range, range(1, 4)):
                for k in sweep(k_range, range(2, 4)):
                    if k >= 2:  # C_2k needs at least 4 vertices
                        row(check_corollary_3_4, n, k)
        if want("lemma3.5"):
            row(check_lemma_3_5, cycle(3), cycle(4), "C3", "C4")
            row(check_lemma_3_5, cycle(4), cycle(3), "C4", "C3")
            row(check_lemma_3_5, complete(2), Graph(["0"], []), "K2", "K1")
            for n1, g1, n2, g2 in random_corona_pairs(pair_count, seed=seed):
                row(check_lemma_3_5, g1, g2, n1, n2)
        if want("lemma3.6"):
            row(check_lemma_3_6, cycle(4), complete(2), "C4", "K2", options)
            row(check_lemma_3_6, cycle(5), Graph(["0"], []), "C5", "K1", options)
            row(check_lemma_3_6, _hypercube(2), path(4), "Q2", "P4", options)
        if want("corollary3.7"):
            row(check_corollary_3_7, complete(2), cycle(3), "K2", "C3", options)
            row(check_corollary_3_7, path(3), complete(3), "P3", "K3", options)
            row(check_corollary_3_7, complete(2), cycle(4), "K2", "C4", options)
        if want("theorem2"):
            for n in sweep(n_range, range(1, 5)):
                for name, g2 in [
                    ("K2", complete(2)),
                    ("P3", path(3)),
                    ("P4", path(4)),
                    ("C4", cycle(4)),
                ]:
                    row(check_theorem_2, n, g2, name, options)
        if want("corollary3.8"):
            for n in sweep(n_range, range(1, 4)):
                for k in sweep(k_range, range(2, 4)):
                    if k >= 2:
                        row(check_corollary_3_8, n, k, options)
        if want("lemma3.9"):
            for n in sweep(n_range, range(1, 6)):
                for k in sweep(k_range, range(1, 3)):
                    row(check_lemma_3_9, n, k, options)
        if want("toroidal"):
            for m in range(3, toroidal_max + 1):
                for n in range(m, toroidal_max + 1):
                    row(check_toroidal_regression, m, n, options)
        if want("chi-product"):
            row(check_chi_product, complete(2), cycle(5), "K2", "C5")
            row(check_chi_product, cycle(3), cycle(3), "C3", "C3")
            row(check_chi_product, _hypercube(2), _hypercube(2), "Q2", "Q2")
        if want("remark-gap"):
            for name, chi, lo, hi in remark_instances(options):
                row(check_remark_gap, name, chi, lo, hi)
    finally:
        _memo = None
    return reports
