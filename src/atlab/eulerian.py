"""Orientations and the even/odd Eulerian subdigraph difference.

An Eulerian subdigraph of an orientation D keeps all vertices and a subset of
arcs such that every vertex has equal indegree and outdegree; it is even or
odd by arc-count parity. diff(D) = #even - #odd. An orientation is an
AT-orientation when diff(D) != 0.

Every arc of an Eulerian subdigraph lies on a directed cycle, so it stays
inside one strongly connected component of D. An Eulerian subdigraph is
therefore one Eulerian subdigraph of each component, chosen independently,
and diff(D) is the product of diff(D[C]) over the components C that have
arcs (an acyclic D has diff 1). A one-way cut, whose crossing arcs all
leave one side, is a special case: no component crosses it, so diff factors
over its sides, and one_way_cut_check reads only the arc directions.
Orientation.strong_components finds the components in one linear pass, kept
on the orientation, and both engines run per component and multiply:

  * eulerian_tally_enumerate - exact even and odd counts over all 2^|A|
    arc subsets of each component, combined by parity (tally_arcs). A
    component in which every vertex has outdegree 1 is one directed cycle:
    (2, 0) for an even length, (1, 1) for an odd one. Any other component is
    counted meet-in-the-middle: arcs are split in halves, each half subset is
    reduced to its per-vertex (outdegree - indegree) imbalance vector packed
    into a single integer, and halves are joined on cancelling imbalances. A
    vertex whose arcs all lie in one half must balance inside it, so the
    subsets that leave it unbalanced are dropped as soon as its last arc is
    in. Cost at most 2^ceil(|A|/2) keys per half, and fewer for every vertex
    a half closes.
  * eulerian_diff_poly - the coefficient of prod_v x_v^(outdeg v) in
    prod_{arc (t,h)} (x_t - x_h), which equals diff(D) (the Alon-Tarsi
    identity, which holds on each component alone). Computed by
    monomial_search, a dynamic program that multiplies the factors in along a
    breadth-first vertex order and drops each vertex's exponent once its last
    factor is in, so its states range over the exponents of the current
    frontier only. The same program, branching on each dropped exponent, is
    the level search of the AT solver.

Each engine raises CapacityError past its own gate, which measures
components, not the whole orientation: ENUM_CAP bounds the arc count of the
largest component and POLY_BUDGET the largest product of (outdegree + 1)
over one component; monomial_search, with no deadline, raises it past
MAX_WORK processed states, which bounds time and live states alike. diff(D)
is a function of D alone, so the gates are module constants, each read by
its own engine, and no function here takes SolverOptions. engine_diff alone
picks an engine, or the bipartite closed form when both are over budget.

Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import repeat
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError, SearchTimeout
from .graphs import Graph, bipartition


class Orientation:
    """A direction choice for every edge of a base graph."""

    __slots__ = ("graph", "tails", "outdegrees", "_components")

    def __init__(self, graph: Graph, tails: Sequence[int]):
        tails = tuple(tails)
        if len(tails) != graph.m:
            raise ValueError(
                f"need one tail per edge: got {len(tails)} for {graph.m} edges"
            )
        out = [0] * graph.n
        for (u, v), t in zip(graph.edges, tails):
            if type(t) is not int:
                # a bool or float would compare equal to an endpoint, and a
                # document could not spell it
                raise ValueError(f"tail {t!r} of edge ({u}, {v}) is not an int")
            if t != u and t != v:
                raise ValueError(f"tail {t} is not an endpoint of edge ({u}, {v})")
            out[t] += 1
        self.graph = graph
        self.tails = tails
        self.outdegrees = tuple(out)
        self._components = None

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """(tail, head) per edge, in base-graph edge order."""
        return tuple(
            (t, v if t == u else u) for (u, v), t in zip(self.graph.edges, self.tails)
        )

    def max_outdegree(self) -> int:
        return max(self.outdegrees, default=0)

    def strong_components(self) -> tuple["StrongComponent", ...]:
        """The strongly connected components that have arcs, each with its
        own arcs relabelled; computed on first use and kept."""
        if self._components is None:
            self._components = _strong_components(self.graph, self.tails)
        return self._components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Orientation)
            and self.graph == other.graph
            and self.tails == other.tails
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.tails))

    def __repr__(self) -> str:
        return f"Orientation(m={self.graph.m}, maxout={self.max_outdegree()})"


class StrongComponent(NamedTuple):
    """A strongly connected component of an orientation. `vertices` holds
    its vertex indices in the orientation's graph, ascending; `arcs` holds
    its arcs as (tail, head) positions in `vertices`."""

    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    def outdegrees(self) -> list[int]:
        out = [0] * len(self.vertices)
        for t, _ in self.arcs:
            out[t] += 1
        return out


def _strong_components(
    graph: Graph, tails: Sequence[int]
) -> tuple[StrongComponent, ...]:
    """Tarjan's algorithm without recursion on the orientation of `graph`
    given by `tails`: the components with two or more vertices (the ones that
    have arcs), in the order Tarjan closes them."""
    n = graph.n
    succ: list[list[int]] = [[] for _ in range(n)]
    for (u, v), t in zip(graph.edges, tails):
        succ[t].append(v if t == u else u)
    index = [0] * n  # visit number from 1; 0 = not visited yet
    low = [0] * n
    comp = [-1] * n  # visited and still -1 means on the stack
    local = [0] * n  # position in its component's sorted vertex list
    stack: list[int] = []
    parts: list[list[int]] = []
    visits = 0
    for root in range(n):
        if index[root]:
            continue
        visits += 1
        index[root] = low[root] = visits
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if not index[w]:
                    visits += 1
                    index[w] = low[w] = visits
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                if stack[-1] == v:  # v alone: no arc inside, matches no vertex
                    stack.pop()
                    comp[v] = n + v
                    continue
                part = []
                while True:
                    w = stack.pop()
                    comp[w] = len(parts)
                    part.append(w)
                    if w == v:
                        break
                part.sort()
                for i, w in enumerate(part):
                    local[w] = i
                parts.append(part)
    inner: list[list[tuple[int, int]]] = [[] for _ in parts]
    for (u, v), t in zip(graph.edges, tails):
        if comp[u] == comp[v]:
            inner[comp[u]].append((local[t], local[u if t == v else v]))
    return tuple(StrongComponent(tuple(p), tuple(a)) for p, a in zip(parts, inner))


def orient(g: Graph, tails: Sequence[int]) -> Orientation:
    """Orientation from a per-edge tail choice (aligned with g.edges)."""
    return Orientation(g, tails)


def orientation_from_arcs(g: Graph, arcs: Iterable[tuple[int, int]]) -> Orientation:
    """Orientation from an arc list that must cover g's edges exactly once."""
    remaining = {}
    for k, (u, v) in enumerate(g.edges):
        remaining[(u, v)] = k
    tails = [None] * g.m
    for t, h in arcs:
        k = remaining.pop((t, h), None)
        if k is None:
            k = remaining.pop((h, t), None)
        if k is None:
            raise ValueError(f"arc ({t!r}, {h!r}) does not match an unused edge")
        tails[k] = t
    if remaining:
        raise ValueError(f"{len(remaining)} edges left unoriented")
    return Orientation(g, tails)


class EulerianTally(NamedTuple):
    """Counts of even and odd Eulerian subdigraphs (the empty one is even)."""

    even_count: int
    odd_count: int

    @property
    def diff(self) -> int:
        return self.even_count - self.odd_count


# ---------------------------------------------------------------------------
# Meet-in-the-middle tally
# ---------------------------------------------------------------------------


def tally_arcs(n_vertices: int, arcs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """(even, odd) Eulerian subdigraph counts of one strongly connected
    component with arcs, given by its vertex count and arc list, over all of
    its arc subsets, with no budget gate.

    |A| = |V| means outdegree 1 everywhere: the component is one directed
    cycle. Otherwise (see the module docstring) each subset of a half is one
    key holding, per vertex, `level` plus its (outdegree - indegree) in a
    field of `bits` bits. The second half negates its imbalance, so an
    Eulerian subdigraph is a pair of equal keys. A half holds at most
    2^ceil(|A|/2) keys.
    """
    m = len(arcs)
    if m and m == n_vertices:
        return (1, 1) if m & 1 else (2, 0)
    # By later endpoint, highest first: a vertex's arcs to lower neighbours
    # then come last and together, and it closes once they are in.
    arcs = sorted(arcs, key=max, reverse=True)
    half = m // 2
    deg = [0] * n_vertices
    first = [0] * n_vertices  # position of the vertex's first arc
    last = [0] * n_vertices  # and of its last
    for i, (t, h) in enumerate(arcs):
        deg[t] += 1
        deg[h] += 1
        last[t] = last[h] = i
    for i in range(m - 1, -1, -1):
        t, h = arcs[i]
        first[t] = first[h] = i
    # A field of `bits` bits holds level +- deg without a carry.
    bits = (2 * max(deg, default=0) + 2).bit_length()
    mask = (1 << bits) - 1
    level = 1 << bits - 1
    base = 0  # the empty subset: every field at level
    closes: list[list[tuple[int, int]]] = [[] for _ in arcs]
    for v in range(n_vertices):
        field, balanced = mask << v * bits, level << v * bits
        base += balanced
        if last[v] < half or first[v] >= half:  # all its arcs in one half
            closes[last[v]].append((field, balanced))

    def keys(steps: range, sign: int) -> tuple[list[int], list[int]]:
        even, odd = [base], []
        for i in steps:
            t, h = arcs[i]
            delta = sign * ((1 << t * bits) - (1 << h * bits))
            grown = list(map(delta.__add__, even))
            even += map(delta.__add__, odd)
            odd += grown
            for field, balanced in closes[i]:  # a vertex closes: it must balance
                even = [k for k in even if k & field == balanced]
                odd = [k for k in odd if k & field == balanced]
        return even, odd

    even1, odd1 = keys(range(half), 1)
    even2, odd2 = keys(range(half, m), -1)
    even, odd = Counter(even1), Counter(odd1)
    return (
        sum(map(even.get, even2, repeat(0))) + sum(map(odd.get, odd2, repeat(0))),
        sum(map(even.get, odd2, repeat(0))) + sum(map(odd.get, even2, repeat(0))),
    )


# Max arc count of the largest strongly connected component that the tally
# enumerates: meet-in-the-middle, at most 2^ceil(arcs/2) keys per half of a
# component's arcs, fewer where a vertex's arcs all lie in one half; a
# component that is one directed cycle costs none.
ENUM_CAP = 24


def eulerian_tally_enumerate(d: Orientation) -> EulerianTally:
    """Exact even/odd tally of the orientation, gated by ENUM_CAP on the arc
    count of its largest strongly connected component.

    Each component is tallied over all of its arc subsets. An Eulerian
    subdigraph of D picks one in every component, and its parity is the sum
    of theirs, so (even, odd) combine as (e1 e2 + o1 o2, e1 o2 + o1 e2).
    """
    parts = d.strong_components()
    arcs = max((len(part.arcs) for part in parts), default=0)
    if arcs > ENUM_CAP:
        raise CapacityError(
            f"{arcs} arcs in the largest strongly connected component "
            f"exceeds the enumeration cap {ENUM_CAP}"
        )
    even, odd = 1, 0
    for part in parts:
        e, o = tally_arcs(len(part.vertices), part.arcs)
        even, odd = even * e + odd * o, even * o + odd * e
    return EulerianTally(even, odd)


# ---------------------------------------------------------------------------
# Frontier-ordered coefficient engine
# ---------------------------------------------------------------------------


def frontier_order(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Vertex order for the coefficient DP: breadth-first from a vertex of
    minimum degree (ties: lowest index), restarting the same way in each
    further component."""
    n = len(adjacency)
    seen = [False] * n
    order: list[int] = []
    degree = list(map(len, adjacency))
    for root in sorted(range(n), key=degree.__getitem__):  # stable: ties by index
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        order += queue
    return order


# States that the arc events of one monomial_search call with no deadline may
# process in all: up to about 20 s and 700 MB on a 2-CPU machine.
MAX_WORK = 1 << 23


def monomial_search(
    arcs: Sequence[tuple[int, int]],
    order: Sequence[int],
    caps: Sequence[int],
    deadline: Optional[float] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """First exponent vector e with e_v <= caps[v] (depth first) whose
    monomial prod_v x_v^(e_v) has a nonzero coefficient in
    prod_{(t, h) in arcs} (x_t - x_h), over the len(caps) vertices. Returns
    (e, coefficient), or None when there is none.

    The search works out its own exponent bounds (Alon and Tarsi 1992).
    No e_v exceeds the number of arcs at v, so each cap is first clipped to
    that count, and every monomial has degree len(arcs), so with slack
    s = sum(clipped caps) - len(arcs) each e_v is at least its clipped cap
    minus s: the others cannot make up more than their caps. Neither bound
    removes a monomial of the product, so they change no result, only how
    much is searched; at s = 0 the floors equal the caps and the search is
    one coefficient, and at s < 0 or with a cap below 0 there is nothing to
    search.

    Factors are multiplied in along `order`: an arc when its later endpoint
    comes up. Once a vertex's last arc is in, its exponent is final: the
    search branches on that value, lowest first, and drops the vertex's
    field, so a state holds the exponents of the frontier only. A state that
    can no longer end inside the bounds is pruned when it arises, and a
    branch whose final exponents leave the others unable to sum to
    len(arcs) is not taken. Raises SearchTimeout past `deadline`, checked at
    every arc and every branch, or with none, CapacityError once the arc
    events have processed more than MAX_WORK states, a deterministic count.
    """
    n, m = len(caps), len(arcs)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    left = [0] * n  # arcs not yet multiplied in, per vertex
    when = []  # per arc: (later, earlier) endpoint position
    for t, h in arcs:
        left[t] += 1
        left[h] += 1
        pt, ph = pos[t], pos[h]
        when.append((pt, ph) if pt > ph else (ph, pt))
    hi = list(map(min, caps, left))
    rest_hi = sum(hi)  # bounds on the exponents still to be fixed
    slack = rest_hi - m
    if slack < 0 or min(hi, default=0) < 0:
        return None
    lo = [max(0, c - slack) for c in hi]
    rest_lo = sum(lo)
    width = max(max(hi, default=0), 1).bit_length()
    mask = (1 << width) - 1
    shift = [-1] * n
    # Field offsets not in use: every one at first, lowest on top, and each
    # retired vertex's field on top of those for the next vertex to arrive.
    free = [k * width for k in reversed(range(n))]
    # Events: ("arc", shift_t, shift_h, hi_t, hi_h, need_t, need_h), where a
    # state keeps x_h's term only if e_t >= need_t (and symmetrically), and
    # ("retire", v, shift_v, least, most) bounding the sum of final exponents.
    events: list[tuple] = []
    for i in sorted(range(m), key=when.__getitem__):
        t, h = arcs[i]
        st, sh = shift[t], shift[h]
        if st < 0:
            st = shift[t] = free.pop()
        if sh < 0:
            sh = shift[h] = free.pop()
        lt = left[t] = left[t] - 1
        lh = left[h] = left[h] - 1
        events.append(("arc", st, sh, hi[t], hi[h], lo[t] - lt, lo[h] - lh))
        if not lt:
            rest_lo -= lo[t]
            rest_hi -= hi[t]
            events.append(("retire", t, st, m - rest_hi, m - rest_lo))
            free.append(st)
        if not lh:
            rest_lo -= lo[h]
            rest_hi -= hi[h]
            events.append(("retire", h, sh, m - rest_hi, m - rest_lo))
            free.append(sh)

    # Depth-first over (next event, states, sum of final exponents, finals).
    stack: list[tuple] = [(0, {0: 1}, 0, None)]
    work = 0
    while stack:
        i, cur, fixed, finals = stack.pop()
        while i < len(events):
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout
            event = events[i]
            i += 1
            if event[0] == "arc":
                if deadline is None:
                    work += len(cur)
                    if work > MAX_WORK:
                        raise CapacityError(
                            f"{work} states processed exceeds the work budget {MAX_WORK}"
                        )
                _, st, sh, hit, hih, need_t, need_h = event
                bt, bh = 1 << st, 1 << sh
                nxt: dict[int, int] = {}
                get = nxt.get
                for key, coef in cur.items():
                    et = (key >> st) & mask
                    eh = (key >> sh) & mask
                    if et < hit and eh >= need_h:
                        k2 = key + bt
                        val = get(k2, 0) + coef
                        if val:
                            nxt[k2] = val
                        else:
                            del nxt[k2]
                    if eh < hih and et >= need_t:
                        k2 = key + bh
                        val = get(k2, 0) - coef
                        if val:
                            nxt[k2] = val
                        else:
                            del nxt[k2]
                cur = nxt
                if not cur:
                    break
                continue
            _, v, sv, least, most = event
            groups: dict[int, dict[int, int]] = {}
            for key, coef in cur.items():
                e = (key >> sv) & mask
                group = groups.get(e)
                if group is None:
                    groups[e] = group = {}
                group[key - (e << sv)] = coef
            branches = sorted((e for e in groups if least <= fixed + e <= most), reverse=True)
            if not branches:
                break
            for e in branches[:-1]:
                stack.append((i, groups[e], fixed + e, (v, e, finals)))
            e = branches[-1]
            cur, fixed, finals = groups[e], fixed + e, (v, e, finals)
        else:
            exps = [0] * n
            while finals is not None:
                v, e, finals = finals
                exps[v] = e
            return tuple(exps), cur[0]
    return None


def diff_coefficient(d: Orientation, order: Optional[Sequence[int]] = None) -> int:
    """Coefficient of prod_v x_v^(outdeg v) in prod_{(t,h)} (x_t - x_h), with
    no gate but monomial_search's work budget: the product of the same
    coefficient over the strongly connected components. An explicit `order`
    of d's vertices is restricted to each component; by default each
    component takes its own breadth-first order (frontier_order).

    Choosing x_t keeps arc (t, h) and -x_h reverses it, so the coefficient
    sums (-1)^|S| over the arc sets S whose reversal keeps every outdegree:
    exactly the Eulerian subdigraphs. It therefore equals diff(d), sign
    included.
    """
    coef = 1
    for part in d.strong_components():
        if order is None:
            adjacency: list[list[int]] = [[] for _ in part.vertices]
            for t, h in part.arcs:
                adjacency[t].append(h)
                adjacency[h].append(t)
            sub_order = frontier_order(adjacency)
        else:
            local = {v: i for i, v in enumerate(part.vertices)}
            sub_order = [local[v] for v in order if v in local]
        hit = monomial_search(part.arcs, sub_order, part.outdegrees())
        if hit is None:
            return 0
        coef *= hit[1]
    return coef


# Gate for eulerian_diff_poly: no strongly connected component's product of
# (outdegree+1) over its vertices may exceed this many monomials.
POLY_BUDGET = 2_000_000


def eulerian_diff_poly(d: Orientation) -> int:
    """Coefficient of prod_v x_v^(outdeg v) in prod_{(t,h)} (x_t - x_h), which
    equals diff(d) (see diff_coefficient), gated by POLY_BUDGET on the largest
    product of (outdegree + 1) over one strongly connected component."""
    states = max(
        (prod(c + 1 for c in part.outdegrees()) for part in d.strong_components()),
        default=1,
    )
    if states > POLY_BUDGET:
        raise CapacityError(
            f"monomial state bound of {states.bit_length()} bits exceeds "
            f"the polynomial budget of {POLY_BUDGET.bit_length()} bits"
        )
    return diff_coefficient(d)


def engine_diff(
    d: Orientation, recorded: Optional[str] = None
) -> tuple[Optional[str], Optional[int]]:
    """(method, signed diff(d)) from the first engine within budget: the tally
    ("enumeration"), then the coefficient ("polynomial"), the `recorded` one
    last so that the other re-checks it. With both over budget,
    ("bipartite-closed-form", None) when d's graph is bipartite (every
    orientation of it has diff != 0), else (None, None)."""
    tally = ("enumeration", lambda: eulerian_tally_enumerate(d).diff)
    poly = ("polynomial", lambda: eulerian_diff_poly(d))
    for method, run in (poly, tally) if recorded == "enumeration" else (tally, poly):
        try:
            return method, run()
        except CapacityError:
            pass
    if bipartition(d.graph) is not None:
        return "bipartite-closed-form", None
    return None, None


# ---------------------------------------------------------------------------
# The one-way cut law
# ---------------------------------------------------------------------------


class OneWayCutReport(NamedTuple):
    """Result of checking a vertex split for one-way arcs.

    When the split is one-way (every crossing arc leaves `left`), no directed
    cycle crosses it, so every strongly connected component lies on one side
    and the component product that both diff engines compute already gives
    diff(D) = diff(D[left]) * diff(D[right]). No side is tallied here.
    """

    one_way: bool

    @property
    def product_ok(self) -> Optional[bool]:
        # the component product proves the law on every one-way split
        return True if self.one_way else None


def one_way_cut_check(
    d: Orientation, left: Iterable[int], right: Iterable[int]
) -> OneWayCutReport:
    """Check that `left` and `right` partition d's vertices and that every
    crossing arc goes left -> right."""
    left = frozenset(left)
    right = frozenset(right)
    if left & right or (left | right) != frozenset(range(d.graph.n)):
        raise ValueError("left/right do not partition the vertex set")
    return OneWayCutReport(not any(t in right and h in left for t, h in d.arcs))
