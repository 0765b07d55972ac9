"""at_exact against answers recorded from an earlier solver.

Every bracket, lower-bound reason, list of lower terms and certificate that
at_exact gives on a fixed corpus is compared field by field with
`golden_at_exact.json`. The corpus is the `exact` benchmark ladder, C3 x C5,
K3 x K3 x K2 and seeded random non-bipartite graphs on 3 to 9 vertices, each
solved with the default options: no time budget. Work that only speeds
the solver up must leave every field as it was.

Running this file as a script prints the JSON for the solver on the path:
`PYTHONPATH=src python tests/test_golden_at_exact.py > tests/golden_at_exact.json`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from atlab import (
    Graph,
    at_exact,
    bipartition,
    cartesian_product,
    complete,
    corona,
    cycle,
    path,
)

GOLDEN = Path(__file__).with_name("golden_at_exact.json")
RANDOM_SEED, RANDOM_COUNT = 1907, 200


def golden_graphs() -> list[tuple[str, Graph]]:
    K, C, P = complete, cycle, path
    prod, cor = cartesian_product, corona
    graphs = [
        ("K3xK2", prod(K(3), K(2))), ("K4xK2", prod(K(4), K(2))),
        ("K5xK2", prod(K(5), K(2))), ("C5xK2", prod(C(5), K(2))),
        ("C3xP3", prod(C(3), P(3))), ("C5xP3", prod(C(5), P(3))),
        ("C3xC3", prod(C(3), C(3))), ("C3xC4", prod(C(3), C(4))),
        ("K3xK3", prod(K(3), K(3))),
        ("C3oC3", cor(C(3), C(3))), ("C3oK3", cor(C(3), K(3))),
        ("K4oK2", cor(K(4), K(2))), ("C5oK2", cor(C(5), K(2))),
        ("C3xC5", prod(C(3), C(5))), ("K3xK3xK2", prod(prod(K(3), K(3)), K(2))),
    ]
    rng = random.Random(RANDOM_SEED)
    while len(graphs) < 15 + RANDOM_COUNT:
        n = rng.randint(3, 9)
        if len(graphs) % 2:
            # a dense bipartite graph plus one edge inside a side: chi is 3,
            # so the density term and the search decide these
            a = n // 2
            cross = [(i, j) for i in range(a) for j in range(a, n)]
            inside = [(i, j) for i in range(n) for j in range(i + 1, n) if (i < a) == (j < a)]
            if not inside:
                continue
            edges = rng.sample(cross, rng.randint(len(cross) * 2 // 3, len(cross)))
            edges.append(rng.choice(inside))
        else:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pairs, rng.randint(n, min(len(pairs), 2 * n + 2)))
        g = Graph([str(i) for i in range(n)], sorted(edges))
        if bipartition(g) is None:
            graphs.append((f"R{len(graphs) - 15}", g))
    return graphs


def outputs(g: Graph) -> list:
    res = at_exact(g)
    cert = res.certificate
    return [res.lo, res.hi, res.lower_bound_reason, cert.level, cert.method,
            cert.diff_magnitude, list(cert.orientation.tails),
            [[value, reason] for value, reason in res.terms]]


def test_at_exact_gives_the_recorded_answers():
    golden = json.loads(GOLDEN.read_text())
    graphs = golden_graphs()
    assert [name for name, _ in graphs] == list(golden)
    for name, g in graphs:
        assert outputs(g) == golden[name], name


if __name__ == "__main__":
    print(json.dumps({name: outputs(g) for name, g in golden_graphs()}, separators=(",", ":"))
          .replace('],"', '],\n"'))
