"""Orientations and the even/odd Eulerian subdigraph difference.

An Eulerian subdigraph of an orientation D keeps all vertices and a subset of
arcs such that every vertex has equal indegree and outdegree; it is even or
odd by arc-count parity. diff(D) = #even - #odd. An orientation is an
AT-orientation when diff(D) != 0.

Two independent engines compute diff:

  * eulerian_tally_enumerate - exact even and odd counts over all 2^|A| arc
    subsets. Implemented meet-in-the-middle: arcs are split in halves, each
    half subset is reduced to its per-vertex (outdegree - indegree) imbalance
    vector packed into a single integer, and halves are joined on cancelling
    imbalances. Cost ~2^(|A|/2) dictionary operations.
  * eulerian_diff_poly - the coefficient of prod_v x_v^(outdeg v) in
    prod_{arc (t,h)} (x_t - x_h), which equals diff(D) (the Alon-Tarsi
    identity). Computed by monomial_search, a dynamic program that multiplies
    the factors in along a breadth-first vertex order and drops each vertex's
    exponent once its last factor is in, so its states range over the
    exponents of the current frontier only. The same program, branching on
    each dropped exponent, is the level search of the AT solver.

Everything is a pure function of immutable inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapacityError, SearchTimeout
from .graphs import Graph
from .options import DEFAULT_OPTIONS, SolverOptions


class Orientation:
    """A direction choice for every edge of a base graph."""

    __slots__ = ("graph", "tails", "outdegrees", "indegrees")

    def __init__(self, graph: Graph, tails: Sequence[int]):
        tails = tuple(tails)
        if len(tails) != graph.m:
            raise ValueError(
                f"need one tail per edge: got {len(tails)} for {graph.m} edges"
            )
        out = [0] * graph.n
        inn = [0] * graph.n
        for (u, v), t in zip(graph.edges, tails):
            if t != u and t != v:
                raise ValueError(f"tail {t} is not an endpoint of edge ({u}, {v})")
            h = v if t == u else u
            out[t] += 1
            inn[h] += 1
        self.graph = graph
        self.tails = tails
        self.outdegrees = tuple(out)
        self.indegrees = tuple(inn)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """(tail, head) per edge, in base-graph edge order."""
        return tuple(
            (t, v if t == u else u) for (u, v), t in zip(self.graph.edges, self.tails)
        )

    def max_outdegree(self) -> int:
        return max(self.outdegrees, default=0)

    def reversed(self) -> "Orientation":
        flipped = [
            v if t == u else u for (u, v), t in zip(self.graph.edges, self.tails)
        ]
        return Orientation(self.graph, flipped)

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
        key = (t, h) if t < h else (h, t)
        k = remaining.pop(key, None)
        if k is None:
            raise ValueError(f"arc ({t}, {h}) does not match an unused edge")
        tails[k] = t
    if remaining:
        raise ValueError(f"{len(remaining)} edges left unoriented")
    return Orientation(g, tails)


def induced_orientation(d: Orientation, keep: Iterable[int]) -> Orientation:
    """Restriction of d to the subgraph induced by vertex indices `keep`."""
    sub, remap = d.graph.induced_subgraph(keep)
    tails = [
        remap[t]
        for (u, v), t in zip(d.graph.edges, d.tails)
        if u in remap and v in remap
    ]
    return Orientation(sub, tails)


@dataclass(frozen=True)
class EulerianTally:
    """Counts of even and odd Eulerian subdigraphs (the empty one is even)."""

    even_count: int
    odd_count: int

    @property
    def diff(self) -> int:
        return self.even_count - self.odd_count


# ---------------------------------------------------------------------------
# Meet-in-the-middle tally
# ---------------------------------------------------------------------------


def _imbalance_bits(n_vertices: int, arcs: Sequence[tuple[int, int]]) -> int:
    """Field width so packed imbalance vectors are collision-free."""
    deg = [0] * n_vertices
    for t, h in arcs:
        deg[t] += 1
        deg[h] += 1
    maxdeg = max(deg, default=0)
    return (2 * maxdeg + 2).bit_length()


def _arc_deltas(arcs: Sequence[tuple[int, int]], bits: int) -> list[int]:
    """Packed imbalance contribution (+1 at tail, -1 at head) per arc."""
    return [(1 << (t * bits)) - (1 << (h * bits)) for t, h in arcs]


def _subset_keys(deltas: Sequence[int]) -> list[int]:
    """Packed imbalance of every subset of `deltas`, indexed by bitmask."""
    keys = [0] * (1 << len(deltas))
    for m in range(1, len(keys)):
        low = m & -m
        keys[m] = keys[m ^ low] + deltas[low.bit_length() - 1]
    return keys


def _group_half(deltas: Sequence[int]) -> dict[int, list[int]]:
    """First-half subsets grouped by negated imbalance key, split by parity."""
    groups: dict[int, list[int]] = {}
    for m, k in enumerate(_subset_keys(deltas)):
        entry = groups.get(-k)
        if entry is None:
            groups[-k] = entry = [0, 0]
        entry[m.bit_count() & 1] += 1
    return groups


def _meet(groups: dict[int, list[int]], deltas: Sequence[int]) -> tuple[int, int]:
    """Join second-half subsets against the grouped first half."""
    even = odd = 0
    get = groups.get
    for m, k in enumerate(_subset_keys(deltas)):
        entry = get(k)
        if entry is not None:
            p = m.bit_count() & 1
            even += entry[p]
            odd += entry[1 - p]
    return even, odd


def tally_arcs(
    n_vertices: int, arcs: Sequence[tuple[int, int]], cap: int
) -> tuple[int, int]:
    """(even, odd) Eulerian subdigraph counts for a raw arc list."""
    a = len(arcs)
    if a > cap:
        raise CapacityError(
            f"{a} arcs exceeds the enumeration cap {cap}; "
            "use the polynomial engine or raise enum_cap"
        )
    bits = _imbalance_bits(n_vertices, arcs)
    deltas = _arc_deltas(arcs, bits)
    half = a // 2
    groups = _group_half(deltas[:half])
    return _meet(groups, deltas[half:])


def eulerian_tally_enumerate(
    d: Orientation, options: SolverOptions = DEFAULT_OPTIONS
) -> EulerianTally:
    """Exact even/odd tally over all arc subsets of the orientation."""
    even, odd = tally_arcs(d.graph.n, d.arcs, options.enum_cap)
    return EulerianTally(even, odd)


# ---------------------------------------------------------------------------
# Frontier-ordered coefficient engine
# ---------------------------------------------------------------------------


def frontier_order(g: Graph) -> list[int]:
    """Vertex order for the coefficient DP: breadth-first from a vertex of
    minimum degree (ties: lowest index), restarting the same way in each
    further component."""
    deg = g.degrees()
    seen = [False] * g.n
    order: list[int] = []
    for root in sorted(range(g.n), key=lambda v: (deg[v], v)):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        order += queue
    return order


def monomial_search(
    n: int,
    arcs: Sequence[tuple[int, int]],
    order: Sequence[int],
    lo: Sequence[int],
    hi: Sequence[int],
    deadline: Optional[float] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """First exponent vector e with lo <= e <= hi (depth first) whose monomial
    prod_v x_v^(e_v) has a nonzero coefficient in prod_{(t, h) in arcs}
    (x_t - x_h). Returns (e, coefficient), or None when there is none.

    Factors are multiplied in along `order`: an arc when its later endpoint
    comes up. Once a vertex's last arc is in, its exponent is final: the
    search branches on that value, lowest first, and drops the vertex's
    field, so a state holds the exponents of the frontier only. A state that
    can no longer end inside [lo, hi] is pruned when it arises, and a branch
    whose final exponents leave the others unable to sum to len(arcs) is not
    taken. Raises SearchTimeout past `deadline`, checked at every arc and
    every branch.
    """
    m = len(arcs)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    left = [0] * n  # arcs not yet multiplied in, per vertex
    for t, h in arcs:
        left[t] += 1
        left[h] += 1
    if any(not left[v] and not lo[v] <= 0 <= hi[v] for v in range(n)):
        return None
    width = max(max(hi, default=0), 1).bit_length()
    mask = (1 << width) - 1
    rest_lo = sum(lo[v] for v in range(n) if left[v])
    rest_hi = sum(hi[v] for v in range(n) if left[v])
    shift = [-1] * n
    free: list[int] = []
    slots = 0
    # Events: ("arc", shift_t, shift_h, hi_t, hi_h, need_t, need_h), where a
    # state keeps x_h's term only if e_t >= need_t (and symmetrically), and
    # ("retire", v, shift_v, least, most) bounding the sum of final exponents.
    events: list[tuple] = []
    for t, h in sorted(arcs, key=lambda a: sorted((pos[a[0]], pos[a[1]]), reverse=True)):
        for v in (t, h):
            if shift[v] < 0:
                if free:
                    shift[v] = free.pop()
                else:
                    shift[v] = slots * width
                    slots += 1
        left[t] -= 1
        left[h] -= 1
        events.append(("arc", shift[t], shift[h], hi[t], hi[h],
                       lo[t] - left[t], lo[h] - left[h]))
        for v in (t, h):
            if not left[v]:
                rest_lo -= lo[v]
                rest_hi -= hi[v]
                events.append(("retire", v, shift[v], m - rest_hi, m - rest_lo))
                free.append(shift[v])

    # Depth-first over (next event, states, sum of final exponents, finals).
    stack: list[tuple] = [(0, {0: 1}, 0, None)]
    while stack:
        i, cur, fixed, finals = stack.pop()
        while i < len(events):
            if deadline is not None and time.monotonic() > deadline:
                raise SearchTimeout
            event = events[i]
            i += 1
            if event[0] == "arc":
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


def poly_state_bound(d: Orientation) -> int:
    """Gate value: product of (outdegree + 1) over all vertices."""
    bound = 1
    for c in d.outdegrees:
        bound *= c + 1
    return bound


def diff_coefficient(d: Orientation, order: Optional[Sequence[int]] = None) -> int:
    """Coefficient of prod_v x_v^(outdeg v) in prod_{(t,h)} (x_t - x_h), with
    no budget gate. `order` defaults to frontier_order(d.graph).

    Choosing x_t keeps arc (t, h) and -x_h reverses it, so the coefficient
    sums (-1)^|S| over the arc sets S whose reversal keeps every outdegree:
    exactly the Eulerian subdigraphs. It therefore equals diff(d), sign
    included.
    """
    if order is None:
        order = frontier_order(d.graph)
    out = d.outdegrees
    hit = monomial_search(d.graph.n, d.arcs, order, out, out)
    return 0 if hit is None else hit[1]


def eulerian_diff_poly(
    d: Orientation, options: SolverOptions = DEFAULT_OPTIONS
) -> int:
    """Coefficient of prod_v x_v^(outdeg v) in prod_{(t,h)} (x_t - x_h), which
    equals diff(d) (see diff_coefficient), gated by poly_budget."""
    bound = poly_state_bound(d)
    if bound > options.poly_budget:
        raise CapacityError(
            f"monomial state bound {bound} exceeds poly_budget {options.poly_budget}"
        )
    return diff_coefficient(d)


# ---------------------------------------------------------------------------
# AT decision and the one-way cut law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ATDecision:
    """Nonzero-diff verdict plus which engine produced it.

    `diff` is the signed diff(d); both engines compute it exactly.
    """

    is_at: bool
    method: str
    diff: int

    def __bool__(self) -> bool:
        return self.is_at


def is_at_orientation(
    d: Orientation, options: SolverOptions = DEFAULT_OPTIONS
) -> ATDecision:
    """True iff diff(d) != 0; engine picked by size, recorded in the result."""
    if d.graph.m <= options.enum_cap:
        tally = eulerian_tally_enumerate(d, options)
        return ATDecision(tally.diff != 0, "enumeration", tally.diff)
    if poly_state_bound(d) <= options.poly_budget:
        coef = eulerian_diff_poly(d, options)
        return ATDecision(coef != 0, "polynomial", coef)
    raise CapacityError(
        f"no diff engine within budget: {d.graph.m} arcs > enum_cap "
        f"{options.enum_cap} and state bound {poly_state_bound(d)} > "
        f"poly_budget {options.poly_budget}"
    )


@dataclass(frozen=True)
class OneWayCutReport:
    """Result of checking a vertex split for one-way arcs and the product law.

    When the split is one-way (every crossing arc leaves `left`), no Eulerian
    subdigraph can use a crossing arc, so diff factors exactly:
    diff(D) = diff(D[left]) * diff(D[right]). Diffs are filled in when the
    enumeration engine is within budget for the respective arc sets.
    """

    one_way: bool
    cross_count: int
    backward_arcs: tuple[tuple[int, int], ...]
    diff_whole: Optional[int] = None
    diff_left: Optional[int] = None
    diff_right: Optional[int] = None

    @property
    def product_ok(self) -> Optional[bool]:
        if None in (self.diff_whole, self.diff_left, self.diff_right):
            return None
        return self.diff_whole == self.diff_left * self.diff_right


def one_way_cut_check(
    d: Orientation,
    left: Iterable[int],
    right: Iterable[int],
    options: SolverOptions = DEFAULT_OPTIONS,
) -> OneWayCutReport:
    """Check that all crossing arcs go left->right and the diff product law."""
    left = frozenset(left)
    right = frozenset(right)
    if left & right or (left | right) != frozenset(range(d.graph.n)):
        raise ValueError("left/right do not partition the vertex set")
    cross = 0
    backward = []
    for t, h in d.arcs:
        if t in left and h in right:
            cross += 1
        elif t in right and h in left:
            backward.append((t, h))
    if backward:
        return OneWayCutReport(False, cross + len(backward), tuple(backward))

    def _diff(sub: Orientation) -> Optional[int]:
        if sub.graph.m > options.enum_cap:
            return None
        return eulerian_tally_enumerate(sub, options).diff

    d_left = _diff(induced_orientation(d, left))
    d_right = _diff(induced_orientation(d, right))
    d_whole = _diff(d)
    return OneWayCutReport(True, cross, (), d_whole, d_left, d_right)
