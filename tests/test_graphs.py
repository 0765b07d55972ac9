import os
import re
import resource
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import atlab
from atlab import (
    Graph,
    SizeCapError,
    bipartition,
    cartesian_product,
    complete,
    complete_bipartite,
    corona,
    cycle,
    hypercube,
    path,
    star,
    tree_from_edges,
    tree_from_pruefer,
)
from atlab.graphs import VERTEX_CAP


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [(0, 2)])
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    # False == 0 and 1.0 == 1, so these would build the (0, 1) graph, which a
    # document then spells with the bad endpoints or cannot spell at all
    for edge in [(False, True), (0, True), (0.0, 1), (0, 1.0), ("0", 1), (0, "1")]:
        with pytest.raises(ValueError, match=re.escape(f"edge ({edge[0]!r}, {edge[1]!r})")):
            Graph(["a", "b"], [edge])


def test_hypercube_counts():
    assert hypercube(1).n == 2 and hypercube(1).m == 1
    q3 = hypercube(3)
    assert q3.n == 8 and q3.m == 12
    q4 = hypercube(4)
    assert q4.n == 16 and q4.m == 32
    assert set(q4.degrees()) == {4}
    for n in range(1, 11):
        q = hypercube(n)
        assert q.n == 2**n
        assert q.m == n * 2 ** (n - 1)
        assert set(q.degrees()) == {n}


def test_hypercube_labels_single_bit_flips():
    q3 = hypercube(3)
    for u, v in q3.edges:
        a, b = q3.vertices[u], q3.vertices[v]
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_hypercube_caps():
    with pytest.raises(SizeCapError):
        hypercube(0)
    with pytest.raises(SizeCapError):
        hypercube(17)


def test_hypercube_reads_its_bound_off_the_vertex_cap(monkeypatch):
    # "each refuses sizes over VERTEX_CAP": the dimension bound follows the cap
    with pytest.raises(SizeCapError, match=r"^hypercube dimension must be in 1\.\.16, got 17$"):
        hypercube(17)
    monkeypatch.setattr(atlab.graphs, "VERTEX_CAP", 30)
    assert hypercube(4).n == 16
    with pytest.raises(SizeCapError, match=r"^hypercube dimension must be in 1\.\.4, got 5$"):
        hypercube(5)


def test_generator_families():
    assert cycle(4).m == 4
    with pytest.raises(ValueError):
        cycle(2)
    p = path(4)
    assert p.n == 4 and p.m == 3
    assert path(1).m == 0
    s = star(5)
    assert s.degrees()[0] == 4 and sorted(s.degrees()) == [1, 1, 1, 1, 4]
    k = complete(5)
    assert k.m == 10
    kb = complete_bipartite(2, 3)
    assert kb.m == 6 and bipartition(kb) is not None


def test_pruefer_decoding():
    assert tree_from_pruefer(()).m == 1  # K2
    t = tree_from_pruefer((1, 1))
    assert sorted(t.degrees()) == [1, 1, 1, 3]  # star on 4, center 1
    with pytest.raises(ValueError):
        tree_from_pruefer((5,))
    t6 = tree_from_pruefer((3, 3, 3, 0))
    assert t6.n == 6 and t6.m == 5
    with pytest.raises(ValueError):
        tree_from_edges(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("size", [True, 3.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("build", [
    hypercube, cycle, path, star, complete,
    lambda size: complete_bipartite(size, 2),
    lambda size: complete_bipartite(2, size),
    lambda size: tree_from_pruefer([size]),
], ids=["hypercube", "cycle", "path", "star", "complete", "bipartite-left",
        "bipartite-right", "pruefer"])
def test_generators_take_int_sizes_only(build, size):
    # True passes a range check as 1 and 3.0 as 3, so every size and Pruefer
    # entry that is not an int is refused by its type, naming the value
    with pytest.raises(ValueError, match=re.escape(repr(size))):
        build(size)


def test_cycle4_matches_q2_shape():
    c4, q2 = cycle(4), hypercube(2)
    assert c4.n == q2.n and c4.m == q2.m
    assert set(c4.degrees()) == set(q2.degrees()) == {2}
    assert bipartition(q2) is not None


def test_cartesian_product_counts():
    g = cartesian_product(hypercube(2), tree_from_pruefer((1, 1)))
    assert g.n == 16 and g.m == 4 * 4 + 4 * 3
    g2 = cartesian_product(cycle(3), cycle(3))
    assert g2.n == 9 and g2.m == 18
    k2k2 = cartesian_product(complete(2), complete(2))
    assert k2k2.n == 4 and k2k2.m == 4 and set(k2k2.degrees()) == {2}


def test_product_count_formula_matches_enumeration():
    for g1, g2 in [(cycle(3), path(3)), (star(4), cycle(4)), (path(2), path(2))]:
        prod = cartesian_product(g1, g2)
        assert prod.m == g1.m * g2.n + g1.n * g2.m
        # direct enumeration of the adjacency condition
        expected = 0
        for i, (u, v) in enumerate(prod.vertices):
            for j in range(i + 1, prod.n):
                up, vp = prod.vertices[j]
                pair2 = tuple(sorted((g2.vertices.index(v), g2.vertices.index(vp))))
                pair1 = tuple(sorted((g1.vertices.index(u), g1.vertices.index(up))))
                same_u = u == up and pair2 in g2.edge_set()
                same_v = v == vp and pair1 in g1.edge_set()
                if same_u or same_v:
                    expected += 1
        assert prod.m == expected


def test_corona_counts_and_labels():
    c = corona(cycle(3), cycle(4))
    assert c.n == 15 and c.m == 3 + 3 * (4 + 4)
    assert c.vertices[0] == (0, "hub") and c.vertices[3] == (0, 0)
    single = Graph(["0"], [])
    p4ish = corona(complete(2), single)
    assert p4ish.n == 4 and p4ish.m == 3
    assert sorted(p4ish.degrees()) == [1, 1, 2, 2]  # a path on 4 vertices
    big = corona(hypercube(2), tree_from_pruefer((1, 1)))
    assert big.n == 20 and big.m == 4 + 4 * (3 + 4)


def test_bipartition_hypercube_weight_parity():
    q3 = hypercube(3)
    side = bipartition(q3)
    assert side.count(0) == 4 and side.count(1) == 4
    for s in (0, 1):
        weights = {q3.vertices[v].count("1") % 2 for v in range(q3.n) if side[v] == s}
        assert len(weights) == 1
    for u, v in q3.edges:
        assert side[u] != side[v]


def test_bipartition_absent_on_odd_cycles():
    assert bipartition(cycle(5)) is None
    assert bipartition(corona(cycle(3), cycle(4))) is None


def test_construction_determinism():
    assert hypercube(4) == hypercube(4)
    assert cartesian_product(cycle(3), path(4)) == cartesian_product(cycle(3), path(4))
    assert corona(hypercube(2), star(4)) == corona(hypercube(2), star(4))
    g = corona(cycle(3), path(2))
    assert g.edges == corona(cycle(3), path(2)).edges


def test_size_cap_on_products():
    with pytest.raises(SizeCapError):
        cartesian_product(hypercube(10), hypercube(10))


@pytest.mark.parametrize("build", [
    cycle, path, star, lambda n: tree_from_pruefer([0] * (n - 2)),
], ids=["cycle", "path", "star", "tree_from_pruefer"])
def test_generators_refuse_one_vertex_over_the_cap(build):
    with pytest.raises(SizeCapError):
        build(VERTEX_CAP + 1)


def _limit_memory():
    # 512 MB of address space: a generator that builds its edge list before
    # checking the cap dies of MemoryError instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("call", [
    "complete(VERTEX_CAP + 1)",
    "complete_bipartite((VERTEX_CAP + 1) // 2, VERTEX_CAP + 1 - (VERTEX_CAP + 1) // 2)",
], ids=["complete", "complete_bipartite"])
def test_dense_generators_refuse_over_the_cap_before_building(call):
    # about 2.1e9 (complete) and 1.1e9 (bipartite) edge tuples if built first
    code = ("from atlab import SizeCapError, complete, complete_bipartite\n"
            "from atlab.graphs import VERTEX_CAP\n"
            "try:\n"
            f"    {call}\n"
            "except SizeCapError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('built without SizeCapError')\n")
    src = str(Path(atlab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=_limit_memory,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]


def _families():
    out = [hypercube(n) for n in range(1, 7)]
    out += [cycle(n) for n in range(3, 9)]
    out += [build(n) for build in (path, star, complete) for n in range(1, 9)]
    out += [complete_bipartite(a, b) for a in range(1, 8) for b in range(1, 9 - a)]
    return out


def _pruefer_trees(max_n):
    return [tree_from_pruefer(seq) for n in range(2, max_n + 1)
            for seq in product(range(n), repeat=n - 2)]


def _assert_as_if_checked(g):
    checked = Graph(g.vertices, g.edges)
    assert checked.vertices == g.vertices
    assert checked.edges == g.edges
    assert checked.adjacency == g.adjacency
    assert hash(checked) == hash(g)
    assert checked == g


def test_generators_build_what_the_checked_constructor_builds():
    # the generators skip Graph.__init__'s checks: every graph they build
    # must pass them and come out identical, adjacency order included
    families = _families()
    trees = _pruefer_trees(6)
    assert len(trees) == 1 + 3 + 16 + 125 + 1296
    for g in families + trees:
        _assert_as_if_checked(g)
    factors = [g for g in families if g.n <= 5] + _pruefer_trees(4)
    for g in factors:
        for h in factors:
            _assert_as_if_checked(cartesian_product(g, h))
            _assert_as_if_checked(corona(g, h))
    for n in range(1, 5):
        for h in factors:
            _assert_as_if_checked(cartesian_product(hypercube(n), h))
            _assert_as_if_checked(corona(hypercube(n), h))
