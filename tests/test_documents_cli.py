import pytest

from atlab import (
    at_bipartite,
    corona,
    corona_orientation,
    cycle,
    hypercube,
    orient,
    path,
)
from atlab.atsolver import bounded_outdegree_orientation
from atlab.cli import main
from atlab.documents import (
    graph_sha256,
    parse_certificate,
    parse_graph,
    serialize_certificate,
    serialize_graph,
)
from atlab.eulerian import Orientation


def test_graph_roundtrip_bit_exact():
    for g in [hypercube(3), corona(cycle(3), path(2)), path(1)]:
        doc = serialize_graph(g, "whatever n=3")
        parsed, prov = parse_graph(doc)
        assert parsed == g and prov == "whatever n=3"
        assert serialize_graph(parsed, prov) == doc


def test_tuple_labels_roundtrip():
    g = corona(hypercube(2), path(2))
    doc = serialize_graph(g)
    parsed, _ = parse_graph(doc)
    assert parsed.vertices == g.vertices
    assert isinstance(parsed.vertices[0], tuple)


def test_edge_list_secondary_format():
    g, prov = parse_graph("0 1\n1 2\n# comment\n2 3\n")
    assert prov is None and g.n == 4 and g.m == 3


def test_certificate_roundtrip():
    res = at_bipartite(hypercube(3))
    doc = serialize_certificate(res.certificate, "hypercube n=3")
    parsed = parse_certificate(doc)
    assert parsed.level == res.certificate.level
    assert parsed.method == res.certificate.method
    assert parsed.diff_magnitude == res.certificate.diff_magnitude
    assert parsed.orientation == res.certificate.orientation
    assert serialize_certificate(parsed.as_certificate(), "hypercube n=3") == doc


def test_certificate_hash_integrity():
    res = at_bipartite(cycle(4))
    doc = serialize_certificate(res.certificate)
    tampered = doc.replace('v "0"', 'v "9"', 1)
    with pytest.raises(ValueError):
        parse_certificate(tampered)


def test_certificate_with_recipe_tags():
    q2, p2 = hypercube(2), path(2)
    d1 = bounded_outdegree_orientation(q2, 1)
    d2 = orient(p2, [0])
    d, recipe = corona_orientation(q2, d1, p2, d2)
    from atlab import ATCertificate

    cert = ATCertificate(d.max_outdegree() + 1, d, None, "product-law+closed-form")
    doc = serialize_certificate(cert, recipe=recipe)
    parsed = parse_certificate(doc)
    assert parsed.recipe_kind == "corona"
    assert len(parsed.rules) == d.graph.m
    assert parsed.rules[0][1] == "R1"


def test_unverified_diff_roundtrip():
    res = at_bipartite(hypercube(6))
    assert res.certificate.diff_magnitude is None
    doc = serialize_certificate(res.certificate)
    assert "diff unverified" in doc
    parsed = parse_certificate(doc)
    assert parsed.diff_magnitude is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_gen_and_at(tmp_path, capsys):
    gpath = tmp_path / "q4.graph"
    assert main(["gen", "hypercube", "4", "-o", str(gpath)]) == 0
    assert capsys.readouterr().out.strip() == "vertices=16 edges=32"
    assert main(["at", str(gpath), "--bipartite"]) == 0
    out = capsys.readouterr().out
    assert "AT = 3" in out


def test_cli_gen_tree_pruefer(tmp_path, capsys):
    gpath = tmp_path / "t.graph"
    assert main(["gen", "tree", "--pruefer", "1,1", "-o", str(gpath)]) == 0
    assert "vertices=4 edges=3" in capsys.readouterr().out


def test_cli_gen_bad_params(capsys):
    assert main(["gen", "hypercube", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_product_corona(tmp_path, capsys):
    q2 = tmp_path / "q2.graph"
    t4 = tmp_path / "t4.graph"
    main(["gen", "hypercube", "2", "-o", str(q2)])
    main(["gen", "tree", "--pruefer", "1,1", "-o", str(t4)])
    capsys.readouterr()
    prod = tmp_path / "prod.graph"
    assert main(["product", str(q2), str(t4), "-o", str(prod)]) == 0
    assert "vertices=16 edges=28" in capsys.readouterr().out
    cor = tmp_path / "cor.graph"
    assert main(["corona", str(q2), str(t4), "-o", str(cor)]) == 0
    assert "vertices=20 edges=32" in capsys.readouterr().out


def test_cli_cert_verify_cycle(tmp_path, capsys):
    gpath = tmp_path / "q3.graph"
    cpath = tmp_path / "q3.cert"
    main(["gen", "hypercube", "3", "-o", str(gpath)])
    assert main(["at", str(gpath), "--bipartite", "--cert", str(cpath)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cpath)]) == 0
    assert "verdict: accepted" in capsys.readouterr().out


def test_cli_diff_modes(tmp_path, capsys):
    gpath = tmp_path / "c4.graph"
    main(["gen", "cycle", "4", "-o", str(gpath)])
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("0 1\n1 2\n2 3\n3 0\n")
    capsys.readouterr()
    assert main(["diff", str(gpath), str(arcs)]) == 0
    out = capsys.readouterr().out
    assert "even 2" in out and "odd 0" in out and "diff 2" in out


def test_cli_diff_past_enum_cap(tmp_path, capsys):
    # Q3 o C3 from its factors' certificates: 60 arcs, over enum_cap 24, but
    # its strongly connected components are two directed 4-cycles
    from atlab import ATCertificate, acyclic_certificate

    q3, c3 = hypercube(3), cycle(3)
    d, _ = corona_orientation(
        q3, at_bipartite(q3).certificate.orientation, c3, acyclic_certificate(c3).orientation
    )
    assert d.graph.m == 60
    cpath = tmp_path / "q3oc3.cert"
    cpath.write_text(serialize_certificate(ATCertificate(d.max_outdegree() + 1, d, 4, "product-law")))
    assert main(["diff", "--cert", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "even 4" in out and "odd 0" in out and "diff 4" in out


def test_cli_diff_rejects_zero_certificate(tmp_path, capsys):
    # hand-build a bogus level-2 certificate for the cyclic odd triangle
    from atlab import ATCertificate
    from atlab.eulerian import orientation_from_arcs

    c3 = cycle(3)
    d = orientation_from_arcs(c3, [(0, 1), (1, 2), (2, 0)])
    cert = ATCertificate(2, d, 1, "enumeration")
    cpath = tmp_path / "bogus.cert"
    cpath.write_text(serialize_certificate(cert))
    assert main(["verify", str(cpath)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_cli_bracket_exit_code(tmp_path, capsys):
    gpath = tmp_path / "c3c4.graph"
    main(["gen", "cycle", "3", "-o", str(gpath)])
    g34_path = tmp_path / "prod.graph"
    c4path = tmp_path / "c4.graph"
    main(["gen", "cycle", "4", "-o", str(c4path)])
    main(["product", str(gpath), str(c4path), "-o", str(g34_path)])
    capsys.readouterr()
    # default edge cap 20 < 24 edges: bracket only, exit 3
    assert main(["at", str(g34_path), "--exact"]) == 3
    out = capsys.readouterr().out
    assert "AT in [" in out
    # raising the cap gives the exact answer
    assert main(["at", str(g34_path), "--exact", "--edge-cap", "24"]) == 0
    assert "AT = 3" in capsys.readouterr().out


def test_cli_theorems_table_and_exit(capsys):
    assert main(["theorems", "--claim", "lemma3.2", "--n", "1..4"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 4 and "4 checks" in out
    assert main(["theorems", "--claim", "remark-gap"]) == 1
    out = capsys.readouterr().out
    assert "3 fail" in out


def test_cli_theorems_json(capsys):
    import json

    assert main(["theorems", "--claim", "toroidal", "--max", "4", "--json"]) == 0
    out = capsys.readouterr().out
    start = out.index("[")
    end = out.rindex("]") + 1
    rows = json.loads(out[start:end])
    assert {r["instance"] for r in rows} == {"C3 x C3", "C3 x C4", "C4 x C4"}
    assert all(r["verdict"] == "pass" for r in rows)


def test_cli_deterministic_bytes(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    main(["gen", "hypercube", "3", "-o", str(gpath)])
    capsys.readouterr()
    main(["theorems", "--claim", "lemma3.1"])
    first = capsys.readouterr().out
    main(["theorems", "--claim", "lemma3.1"])
    second = capsys.readouterr().out
    assert first == second


GOLDEN_Q2 = """atlab-graph 1
provenance hypercube n=2
vertices 4
v "00"
v "01"
v "10"
v "11"
edges 4
e 0 1
e 0 2
e 1 3
e 2 3
"""


def test_golden_graph_document_bytes():
    assert serialize_graph(hypercube(2), "hypercube n=2") == GOLDEN_Q2


def test_truncated_documents_raise_value_error(tmp_path):
    with pytest.raises(ValueError):
        parse_graph("atlab-graph 1\nvertices 4\nv \"00\"\n")
    res = at_bipartite(cycle(4))
    doc = serialize_certificate(res.certificate)
    with pytest.raises(ValueError):
        parse_certificate("\n".join(doc.splitlines()[:4]) + "\n")


def test_cli_accepts_bare_edge_list(tmp_path, capsys):
    raw = tmp_path / "square.txt"
    raw.write_text("0 1\n1 2\n2 3\n0 3\n")
    assert main(["at", str(raw), "--bipartite"]) == 0
    assert "AT = 2" in capsys.readouterr().out


def test_cli_theorems_inconclusive_exit(capsys):
    # a time budget too small to refute forces a bracket: exit 3, never "fail"
    code = main(["theorems", "--claim", "toroidal", "--max", "3", "--time-budget", "1e-9"])
    out = capsys.readouterr().out
    assert code == 3
    assert "inconclusive" in out and "fail" not in out.replace("0 fail", "")
