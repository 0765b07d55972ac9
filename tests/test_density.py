import random
from fractions import Fraction

import pytest

from atlab import (
    CapacityError,
    Graph,
    corona,
    cycle,
    hypercube,
    max_density,
    tree_from_pruefer,
)
from atlab.density import induced_edge_count
from helpers import corpus, max_density_bruteforce, random_graph


def test_regular_graphs_density_is_degree_over_two():
    for n in range(1, 7):
        dw = max_density(hypercube(n))
        assert dw.density == Fraction(n, 2)
        assert len(dw.witness) == 2**n
    assert max_density(cycle(6)).density == 1


def test_tree_density():
    for seq in [(), (1, 1), (0, 1, 2), (3, 3, 3, 0)]:
        t = tree_from_pruefer(seq)
        dw = max_density(t)
        assert dw.density == Fraction(t.n - 1, t.n)
        assert len(dw.witness) == t.n


def test_exact_density_of_larger_graphs():
    g = corona(hypercube(3), cycle(3))
    dw = max_density(g)
    assert dw.density == Fraction(15, 8)
    assert Fraction(induced_edge_count(g, dw.witness), len(dw.witness)) == dw.density
    rng = random.Random(400)
    t = tree_from_pruefer([rng.randrange(400) for _ in range(398)])
    dw = max_density(t)
    assert dw.density == Fraction(t.n - 1, t.n) and len(dw.witness) == t.n == 400


def test_c5_plus_pendant():
    g = Graph([str(i) for i in range(6)],
              [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    reversal = max_density(g)
    brute = max_density_bruteforce(g)
    assert reversal.density == brute.density == 1
    # the brute-force tie-break prefers the smaller subset: the bare 5-cycle
    assert brute.witness == (0, 1, 2, 3, 4)
    assert Fraction(induced_edge_count(g, reversal.witness), len(reversal.witness)) == 1


def test_bruteforce_frozen_values():
    assert max_density_bruteforce(Graph(["a", "b"], [(0, 1)])).density == Fraction(1, 2)
    from atlab import complete

    assert max_density_bruteforce(complete(4)).density == Fraction(3, 2)
    assert max_density_bruteforce(hypercube(3)).density == Fraction(3, 2)


def test_bruteforce_cap():
    with pytest.raises(CapacityError):
        max_density_bruteforce(hypercube(5))


def test_edgeless_and_empty():
    g = Graph(["a", "b"], [])
    dw = max_density(g)
    assert dw.density == 0 and dw.witness == (0,)
    with pytest.raises(ValueError):
        max_density(Graph([], []))


def test_path_reversal_matches_bruteforce_on_corpus():
    for name, g in corpus():
        if g.n > 14:
            continue
        reversal = max_density(g)
        brute = max_density_bruteforce(g)
        assert reversal.density == brute.density, name
        assert (
            Fraction(induced_edge_count(g, reversal.witness), len(reversal.witness))
            == reversal.density
        ), name


def test_path_reversal_matches_bruteforce_random():
    rng = random.Random(31337)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.7]))
        assert max_density(g).density == max_density_bruteforce(g).density


def test_monotone_under_edge_addition():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, 8, 0.3)
        missing = [
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if (i, j) not in g.edge_set()
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = Graph(g.vertices, list(g.edges) + [extra])
        assert max_density(g2).density >= max_density(g).density


def test_mad():
    # maximum average degree: twice the maximum density
    assert 2 * max_density(hypercube(4)).density == 4
    assert 2 * max_density(tree_from_pruefer((1, 1))).density == Fraction(3, 2)
    assert 2 * max_density(cycle(6)).density == 2
