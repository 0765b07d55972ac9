"""The four benchmark workloads: inputs made from a seed, one pass of ops, and
the correctness gate for each op's answer.

Every op runs in this process with `threads=1`, so a timing measures the
program and not the scheduler. The workloads call atlab through module
attributes at call time (`atlab.at_exact`, not a name imported once), so the
span recorder's wrappers see every call.

- suite: `run_suite(seed=S)` with default options; each outermost claim check
  is one op. The only workload where `density` dominates.
- exact: `at_exact` with `search_edge_cap=|E|` and a fixed budget on a ladder
  of non-bipartite products and coronas the solver decides, plus seeded
  random non-bipartite graphs. Level search dominates.
- reach: work the solver cannot decide yet: two `at_exact` calls that run
  past their budget and six recipe certificates that verify only as
  `outdegree-only`. It ignores the seed.
- verify: certificate round trips (serialize, parse, verify, plus the
  one-way cut check for corona recipes) on certificates built without any
  search: closed forms, recipes and seeded random orientations of random
  bipartite graphs.
"""

from __future__ import annotations

import functools
import random
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import atlab
import atlab.documents

from atlab.atsolver import SearchTimeout
from atlab.errors import CapacityError
from spans import CHECKS

EXACT_BUDGET_S = 5.0
REACH_BUDGET_S = 2.0

# Verdicts the paper's remark gets wrong: chi equals AT on these instances.
KNOWN_REDS = {("remark-gap", "Q2"), ("remark-gap", "Q3 o P3"), ("remark-gap", "Q3 o C3")}


class WrongAnswer(Exception):
    """An op returned an answer that contradicts a known value."""


# An op that raises one of these ran out of a cap or a budget: it is
# undecided. Any other raise is a wrong answer.
UNDECIDED_RAISES = (CapacityError, SearchTimeout)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    item: object = None
    start: float = 0.0
    seconds: float = 0.0
    result: object = None
    error: Optional[str] = None  # what the op raised, if it raised
    undecided_raise: bool = False  # it raised one of UNDECIDED_RAISES
    budget: Optional[float] = None
    decided: bool = False  # set by the gate

    @property
    def raised(self) -> bool:
        return self.error is not None


class OpLog:
    """Times each op of one pass; opens an op span when tracing. Between
    ops it takes the machine-speed samples that are due (`speed.SpeedRef`)
    and keeps the time they took in `paused`, outside every op."""

    def __init__(self, speed, recorder=None):
        self.speed = speed
        self.recorder = recorder
        self.ops: list[Op] = []
        self.open = False  # an op is running
        self.paused = 0.0

    def run(self, name: str, fn: Callable, *args, item=None, budget: Optional[float] = None,
            **kwargs):
        """fn(*args, **kwargs) as one op: returns its value, re-raises its error.
        Called while an op is running, it is part of that op: it just calls fn."""
        if self.open:
            return fn(*args, **kwargs)
        self.paused += self.speed.maybe_sample()
        op = Op(name, item, budget=budget)
        self.ops.append(op)
        span = self.recorder.op(name) if self.recorder else nullcontext()
        self.open = True
        t0 = op.start = perf_counter()
        try:
            with span:
                op.result = fn(*args, **kwargs)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            op.undecided_raise = isinstance(exc, UNDECIDED_RAISES)
            raise
        finally:
            op.seconds = perf_counter() - t0
            self.open = False
        return op.result

    def run_each(self, items, fn: Callable) -> None:
        """One op per item; an op that raises is logged and the pass goes on."""
        for item in items:
            try:
                self.run(item.name, fn, item, item=item, budget=item.budget)
            except Exception:
                traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class Instance:
    """An `at_exact` call and what its answer must satisfy."""

    name: str
    graph: atlab.Graph
    options: atlab.SolverOptions
    chi: int
    known: Optional[int] = None

    @property
    def budget(self) -> Optional[float]:
        return self.options.time_budget


@dataclass(frozen=True)
class RoundTrip:
    """A certificate to serialize, parse and verify."""

    name: str
    cert: atlab.ATCertificate
    recipe: Optional[atlab.ConstructionRecipe] = None
    cut_sides: Optional[tuple] = None
    budget = None


def solve(inst: Instance):
    return atlab.at_exact(inst.graph, inst.options)


def round_trip(trip: RoundTrip):
    """What `atlab verify` does with a certificate file, without the file."""
    text = atlab.documents.serialize_certificate(trip.cert, trip.name, trip.recipe)
    doc = atlab.documents.parse_certificate(text)
    report = atlab.verify_certificate(doc.as_certificate())
    cut = None
    if report.accepted and trip.cut_sides is not None:
        cut = atlab.one_way_cut_check(doc.orientation, *trip.cut_sides)
    return report, cut


# ---------------------------------------------------------------------------
# Gates: each returns whether the op was decided, or raises WrongAnswer
# ---------------------------------------------------------------------------


def judge_solve(inst: Instance, result, require_accepted: bool) -> bool:
    lo, hi = result.lo, result.hi
    if lo > hi or hi < inst.chi:
        raise WrongAnswer(f"{inst.name}: bracket [{lo}, {hi}] with chi = {inst.chi}")
    if inst.known is not None and not lo <= inst.known <= hi:
        raise WrongAnswer(f"{inst.name}: [{lo}, {hi}] excludes the known value {inst.known}")
    verdict = atlab.verify_certificate(result.certificate).verdict
    if verdict == "rejected" or (require_accepted and verdict != "accepted"):
        raise WrongAnswer(f"{inst.name}: certificate verdict {verdict}")
    return result.is_exact


def judge_round_trip(trip: RoundTrip, result) -> bool:
    report, cut = result
    if report.verdict == "rejected":
        raise WrongAnswer(f"{trip.name}: certificate rejected: {report.messages}")
    if not report.accepted:
        return False
    recorded = trip.cert.diff_magnitude
    if recorded is not None and report.diff_magnitude not in (None, recorded):
        raise WrongAnswer(f"{trip.name}: |diff| {report.diff_magnitude} != recorded {recorded}")
    if cut is not None and (not cut.one_way or cut.product_ok is False):
        raise WrongAnswer(f"{trip.name}: recipe cut law fails: {cut}")
    return True


# ---------------------------------------------------------------------------
# Certificates built without search
# ---------------------------------------------------------------------------


def factor_certificate(g: atlab.Graph) -> atlab.ATCertificate:
    """Closed form for bipartite graphs, the degeneracy order otherwise."""
    if atlab.bipartition(g) is not None:
        return atlab.at_bipartite(g).certificate
    return atlab.acyclic_certificate(g)


def corona_trip(name: str, g1: atlab.Graph, g2: atlab.Graph) -> RoundTrip:
    c1, c2 = factor_certificate(g1), factor_certificate(g2)
    d, recipe = atlab.corona_orientation(g1, c1.orientation, g2, c2.orientation)
    magnitude = None
    if c1.diff_magnitude is not None and c2.diff_magnitude is not None:
        magnitude = c1.diff_magnitude * c2.diff_magnitude ** g1.n
    cert = atlab.ATCertificate(d.max_outdegree() + 1, d, magnitude, "product-law")
    return RoundTrip(name, cert, recipe, atlab.corona_cut_sides(g1, g2))


def product_trip(name: str, g1: atlab.Graph, g2: atlab.Graph) -> RoundTrip:
    c1, c2 = factor_certificate(g1), factor_certificate(g2)
    d, recipe = atlab.product_orientation(g1, c1.orientation, g2, c2.orientation)
    return RoundTrip(name, atlab.ATCertificate(d.max_outdegree() + 1, d, None, "product-rule"),
                     recipe)


def _random_graph(rng: random.Random, n: int, m: int, pairs, edges=()) -> atlab.Graph:
    """`edges` plus random choices from `pairs` until there are m edges."""
    edges = set(edges)
    while len(edges) < m:
        edges.add(rng.choice(pairs))
    return atlab.Graph([str(i) for i in range(n)], sorted(edges))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def judge_pass(self, inputs, ops: list[Op]) -> None:
        """Checks on a whole pass beyond those on single ops."""


class Suite(Workload):
    name = "suite"

    def inputs(self, seed: int):
        return seed

    def run_pass(self, seed: int, log: OpLog) -> None:
        theorems = atlab.theorems
        originals = {name: getattr(theorems, name) for name in CHECKS}
        # Each check call is an op; a check that another check calls is part
        # of that check's op (OpLog.run calls straight through inside an op).
        for name, fn in originals.items():
            setattr(theorems, name, functools.partial(log.run, name, fn))
        try:
            reports = theorems.run_suite(seed=seed)
        finally:
            for name, fn in originals.items():
                setattr(theorems, name, fn)
        if len(reports) != len(log.ops) or any(
            op.result is not r for op, r in zip(log.ops, reports)
        ):
            raise WrongAnswer("suite reports do not match the checks it ran")

    def judge(self, seed, op: Op) -> bool:
        report = op.result
        key = (report.claim, report.instance)
        if report.verdict == "inconclusive":
            return False
        expected = "fail" if key in KNOWN_REDS else "pass"
        if report.verdict != expected:
            raise WrongAnswer(f"{key}: verdict {report.verdict}, expected {expected}")
        return True

    def judge_pass(self, seed, ops: list[Op]) -> None:
        seen = {(op.result.claim, op.result.instance) for op in ops if op.result is not None}
        if not KNOWN_REDS <= seen:
            raise WrongAnswer(f"suite no longer checks {sorted(KNOWN_REDS - seen)}")


class Exact(Workload):
    name = "exact"
    # AT(C_m x C_n) is 4 when both m and n are odd, 3 otherwise.
    TOROIDAL = {"C3xC3": 4, "C3xC4": 3}
    # Random graphs: a triangle plus random edges up to RANDOM_M, on RANDOM_N
    # vertices. At this size each is decided in about 1 ms, so together they
    # are a fifth of the pass and the ladder the rest. There are many of them
    # so that op_ms.p50, which falls among them, is the median of many draws
    # and moves little from seed to seed (bench/NOTES.md).
    RANDOM_COUNT, RANDOM_N, RANDOM_M = 128, 8, 14

    def inputs(self, seed: int) -> list[Instance]:
        K, C, P = atlab.complete, atlab.cycle, atlab.path
        prod, cor = atlab.cartesian_product, atlab.corona
        graphs = [
            ("K3xK2", prod(K(3), K(2))), ("K4xK2", prod(K(4), K(2))),
            ("K5xK2", prod(K(5), K(2))), ("C5xK2", prod(C(5), K(2))),
            ("C3xP3", prod(C(3), P(3))), ("C5xP3", prod(C(5), P(3))),
            ("C3xC3", prod(C(3), C(3))), ("C3xC4", prod(C(3), C(4))),
            ("K3xK3", prod(K(3), K(3))),
            ("C3oC3", cor(C(3), C(3))), ("C3oK3", cor(C(3), K(3))),
            ("K4oK2", cor(K(4), K(2))), ("C5oK2", cor(C(5), K(2))),
        ]
        rng = random.Random(f"exact/{seed}")
        n, m = self.RANDOM_N, self.RANDOM_M
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for t in range(self.RANDOM_COUNT):
            graphs.append((f"R{t}", _random_graph(rng, n, m, pairs, [(0, 1), (0, 2), (1, 2)])))
        return [
            Instance(name, g, atlab.SolverOptions(search_edge_cap=g.m, time_budget=EXACT_BUDGET_S,
                                                  threads=1),
                     atlab.chromatic_number(g), self.TOROIDAL.get(name))
            for name, g in graphs
        ]

    def run_pass(self, instances, log: OpLog) -> None:
        log.run_each(instances, solve)

    def judge(self, instances, op: Op) -> bool:
        return judge_solve(op.item, op.result, require_accepted=True)


class Reach(Workload):
    name = "reach"

    def inputs(self, seed: int):
        # Fixed: these instances exist to show what the solver cannot decide,
        # so the seed is ignored.
        c3xc5 = atlab.cartesian_product(atlab.cycle(3), atlab.cycle(5))
        k3k3k2 = atlab.cartesian_product(
            atlab.cartesian_product(atlab.complete(3), atlab.complete(3)), atlab.complete(2))
        solves = [
            Instance(name, g, atlab.SolverOptions(search_edge_cap=g.m,
                                                  time_budget=REACH_BUDGET_S, threads=1),
                     atlab.chromatic_number(g), known)
            for name, g, known in [("C3xC5", c3xc5, 4), ("K3xK3xK2", k3k3k2, None)]
        ]
        q = atlab.hypercube
        trips = [
            corona_trip("Q3oC3", q(3), atlab.cycle(3)),
            corona_trip("Q3oP3", q(3), atlab.path(3)),
            corona_trip("Q2oK3", q(2), atlab.complete(3)),
            corona_trip("Q4oC5", q(4), atlab.cycle(5)),
            product_trip("Q3xC3", q(3), atlab.cycle(3)),
            product_trip("Q4xC5", q(4), atlab.cycle(5)),
        ]
        return solves, trips

    def run_pass(self, inputs, log: OpLog) -> None:
        solves, trips = inputs
        log.run_each(solves, solve)
        log.run_each(trips, round_trip)

    def judge(self, inputs, op: Op) -> bool:
        if isinstance(op.item, Instance):
            return judge_solve(op.item, op.result, require_accepted=False)
        return judge_round_trip(op.item, op.result)


class Verify(Workload):
    name = "verify"
    # Random bipartite graphs: RANDOM_M edges between two sides of
    # RANDOM_SIDE vertices, randomly oriented. Every orientation of a
    # bipartite graph has nonzero diff, so each must be accepted.
    RANDOM_COUNT, RANDOM_SIDE, RANDOM_M = 24, 6, 20

    def inputs(self, seed: int) -> list[RoundTrip]:
        q, prod = atlab.hypercube, atlab.cartesian_product
        trips = [
            RoundTrip(name, factor_certificate(g))
            for name, g in [
                ("Q3", q(3)), ("Q4", q(4)), ("Q5", q(5)),
                ("Q3xP3", prod(q(3), atlab.path(3))), ("Q4xP6", prod(q(4), atlab.path(6))),
                ("C4xC6", prod(atlab.cycle(4), atlab.cycle(6))),
            ]
        ]
        trips.append(corona_trip("C3oC3", atlab.cycle(3), atlab.cycle(3)))
        trips.append(product_trip("Q2xK3", q(2), atlab.complete(3)))
        rng = random.Random(f"verify/{seed}")
        s = self.RANDOM_SIDE
        pairs = [(i, s + j) for i in range(s) for j in range(s)]
        for t in range(self.RANDOM_COUNT):
            g = _random_graph(rng, 2 * s, self.RANDOM_M, pairs)
            d = atlab.orient(g, [rng.choice(e) for e in g.edges])
            cert = atlab.ATCertificate(d.max_outdegree() + 1, d, None, "random-orientation")
            trips.append(RoundTrip(f"B{t}", cert))
        return trips

    def run_pass(self, trips, log: OpLog) -> None:
        log.run_each(trips, round_trip)

    def judge(self, trips, op: Op) -> bool:
        return judge_round_trip(op.item, op.result)


WORKLOADS = {w.name: w for w in (Suite(), Exact(), Reach(), Verify())}
