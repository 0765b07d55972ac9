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


def test_certificate_embedded_graph_must_be_a_graph_document():
    # a bare edge list synthesizes labels "0".."3" and so hashes like C4
    lines = serialize_certificate(at_bipartite(cycle(4)).certificate).splitlines()
    begin, end = lines.index("graph-begin"), lines.index("graph-end")
    edge_list = [f"{u} {v}" for u, v in cycle(4).edges]
    assert parse_graph("\n".join(edge_list))[0] == cycle(4)
    lines[begin + 1 : end] = edge_list
    with pytest.raises(ValueError, match="atlab-graph 1"):
        parse_certificate("\n".join(lines) + "\n")


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
    assert main(["at", str(g34_path)]) == 3
    out = capsys.readouterr().out
    assert "AT in [" in out
    # raising the cap gives the exact answer
    assert main(["at", str(g34_path), "--edge-cap", "24"]) == 0
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


GOLDEN_Q2_CERT = """atlab-cert 1
level 2
method enumeration
diff 2
graph-sha256 d59059f0e99f56b722b5b24fbb13dcb77010a0ab0ddd7f54fe915159c6b403e5
graph-begin
atlab-graph 1
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
graph-end
arcs 4
a 0 1
a 2 0
a 1 3
a 3 2
"""


def test_golden_certificate_document_bytes():
    g = hypercube(2)
    cert = at_bipartite(g).certificate
    assert serialize_certificate(cert) == GOLDEN_Q2_CERT
    with_provenance = GOLDEN_Q2_CERT.replace(
        "atlab-graph 1\n", "atlab-graph 1\nprovenance hypercube n=2\n"
    )
    assert serialize_certificate(cert, "hypercube n=2") == with_provenance
    # the hash covers the canonical graph text without the provenance line
    assert f"graph-sha256 {graph_sha256(g)}\n" in GOLDEN_Q2_CERT
    assert parse_certificate(with_provenance).graph_provenance == "hypercube n=2"


def _replace_hash(doc: str, digest: str) -> str:
    lines = doc.splitlines()
    lines[4] = f"graph-sha256 {digest}"
    return "\n".join(lines) + "\n"


def _raw_graph_sha256(doc: str) -> str:
    import hashlib

    lines = doc.splitlines()
    raw = "\n".join(lines[lines.index("graph-begin") + 1 : lines.index("graph-end")]) + "\n"
    return hashlib.sha256(raw.encode()).hexdigest()


@pytest.mark.parametrize(
    "old, new",
    [('v ["0","1"]', 'v ["0", "1"]'), ("e 2 3\n", "e 3 2\n")],
    ids=["label-spacing", "reversed-edge"],
)
def test_graph_hash_is_over_the_canonical_text(old, new):
    from atlab import cartesian_product

    cert = at_bipartite(cartesian_product(path(2), path(2))).certificate
    doc = serialize_certificate(cert)
    noncanonical = doc.replace(old, new, 1)
    assert noncanonical != doc
    parsed = parse_certificate(noncanonical)
    assert parsed == parse_certificate(doc)
    assert parsed.orientation == cert.orientation
    raw_digest = _raw_graph_sha256(noncanonical)
    assert raw_digest != graph_sha256(cert.orientation.graph)
    with pytest.raises(ValueError, match="recorded hash"):
        parse_certificate(_replace_hash(noncanonical, raw_digest))


@pytest.mark.parametrize(
    "label",
    ['{"a":1}', "1.5", "null", "true", '["0",{"b":2}]', "[" * 100000 + "]" * 100000],
    ids=["object", "float", "null", "bool", "nested-object", "too-deep"],
)
def test_label_outside_the_label_types_is_rejected(tmp_path, capsys, label):
    with pytest.raises(ValueError, match="vertex label"):
        parse_graph(f"atlab-graph 1\nvertices 1\nv {label}\nedges 0\n")
    doc = serialize_certificate(at_bipartite(cycle(4)).certificate)
    cpath = tmp_path / "bad-label.cert"
    cpath.write_text(doc.replace('v "0"', f"v {label}", 1))
    assert main(["verify", str(cpath)]) == 2
    assert "vertex label" in capsys.readouterr().err


def test_certificate_with_lines_after_its_last_section_is_rejected():
    doc = serialize_certificate(at_bipartite(cycle(4)).certificate)
    assert parse_certificate(doc + "\n\n").level == 2  # trailing blank lines are fine
    with pytest.raises(ValueError, match="after the certificate"):
        parse_certificate(doc + "a 0 1\n")
    q2, p2 = hypercube(2), path(2)
    d, recipe = corona_orientation(q2, bounded_outdegree_orientation(q2, 1), p2, orient(p2, [0]))
    from atlab import ATCertificate

    with_recipe = serialize_certificate(ATCertificate(3, d, None, "product-law"), recipe=recipe)
    with pytest.raises(ValueError, match="after the certificate"):
        parse_certificate(with_recipe + "junk\n")


def test_graph_with_lines_after_its_edges_is_rejected():
    text = serialize_graph(cycle(4))
    assert parse_graph(text + "\n")[0] == cycle(4)
    with pytest.raises(ValueError, match="after the edges"):
        parse_graph(text + "e 0 2\n")
    lines = serialize_certificate(at_bipartite(cycle(4)).certificate).splitlines()
    end = lines.index("graph-end")
    lines.insert(end, lines[end - 1])  # the last edge line twice
    with pytest.raises(ValueError, match="after the edges"):
        parse_certificate("\n".join(lines) + "\n")


def test_every_proper_prefix_raises_value_error():
    graph_lines = serialize_graph(hypercube(2), "hypercube n=2").splitlines()
    cert_lines = GOLDEN_Q2_CERT.splitlines()
    for k in range(len(graph_lines)):
        with pytest.raises(ValueError):
            parse_graph("\n".join(graph_lines[:k]) + "\n")
    for k in range(len(cert_lines)):
        with pytest.raises(ValueError):
            parse_certificate("\n".join(cert_lines[:k]) + "\n")
    del cert_lines[cert_lines.index("graph-end") - 1]  # the embedded graph's last edge
    with pytest.raises(ValueError, match="truncated graph document"):
        parse_certificate("\n".join(cert_lines) + "\n")


def test_non_ascii_and_tuple_labels_encode_as_ascii_json():
    from atlab import Graph

    g = Graph(["\u00e9", ("a", 1, ("b",))], [(0, 1)])
    text = serialize_graph(g)
    assert text == 'atlab-graph 1\nvertices 2\nv "\\u00e9"\nv ["a",1,["b"]]\nedges 1\ne 0 1\n'
    assert parse_graph(text)[0] == g


@pytest.mark.parametrize("record", ["a", "e"])
def test_record_line_with_extra_fields_is_rejected(record):
    doc = serialize_certificate(at_bipartite(cycle(4)).certificate)
    line = next(x for x in doc.splitlines() if x.startswith(record + " "))
    with pytest.raises(ValueError, match="3 fields"):
        parse_certificate(doc.replace(line + "\n", line + " junk\n", 1))
    if record == "e":
        with pytest.raises(ValueError, match="3 fields"):
            parse_graph(serialize_graph(cycle(4)).replace("e 0 1\n", "e 0 1 junk\n"))


def test_negative_vertex_count_is_rejected():
    with pytest.raises(ValueError, match="negative count"):
        parse_graph("atlab-graph 1\nvertices -1\nedges 0\n")


def test_cli_verify_corona_recipe_prints_cut_law(tmp_path, capsys):
    from atlab import ATCertificate, acyclic_certificate

    q3, c3 = hypercube(3), cycle(3)
    d, recipe = corona_orientation(
        q3, at_bipartite(q3).certificate.orientation, c3, acyclic_certificate(c3).orientation
    )
    cpath = tmp_path / "q3oc3.cert"
    cert = ATCertificate(d.max_outdegree() + 1, d, 4, "product-law")
    cpath.write_text(serialize_certificate(cert, "Q3 o C3", recipe))
    assert main(["verify", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "verdict: accepted" in out
    assert "recipe cut law: diff 4 = 1 * 4: ok" in out


def _mutation_corpus():
    import random

    from atlab import (
        ATCertificate,
        Graph,
        acyclic_certificate,
        complete,
        product_orientation,
    )

    q2, c3, k3 = hypercube(2), cycle(3), complete(3)
    docs = [serialize_certificate(at_bipartite(hypercube(3)).certificate, "Q3")]
    d, recipe = corona_orientation(
        c3, acyclic_certificate(c3).orientation, c3, acyclic_certificate(c3).orientation
    )
    cert = ATCertificate(d.max_outdegree() + 1, d, 1, "product-law")
    docs.append(serialize_certificate(cert, "C3oC3", recipe))
    d, recipe = product_orientation(
        q2, at_bipartite(q2).certificate.orientation, k3, acyclic_certificate(k3).orientation
    )
    cert = ATCertificate(d.max_outdegree() + 1, d, None, "product-rule")
    docs.append(serialize_certificate(cert, None, recipe))
    rng = random.Random(20261018)
    pairs = [(i, 5 + j) for i in range(5) for j in range(5)]
    for _ in range(20):
        g = Graph([str(i) for i in range(10)], sorted(rng.sample(pairs, 12)))
        d = orient(g, [rng.choice(e) for e in g.edges])
        cert = ATCertificate(d.max_outdegree() + 1, d, None, "random-orientation")
        docs.append(serialize_certificate(cert))
    return rng, docs


def _mutate(rng, text: str) -> str:
    lines = text.splitlines()
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["delete", "duplicate", "swap", "digit"])
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        digits = [k for k, ch in enumerate(lines[i]) if ch.isdigit()] or [None]
        k = rng.choice(digits)
        if k is not None:
            lines[i] = lines[i][:k] + str(rng.randrange(10)) + lines[i][k + 1 :]
    return "\n".join(lines) + "\n"


def test_mutated_certificates_parse_to_a_cover_or_raise_value_error():
    rng, docs = _mutation_corpus()
    parsed = rejected = 0
    for doc in docs:
        for _ in range(40):
            try:
                result = parse_certificate(_mutate(rng, doc))
            except ValueError:
                rejected += 1
                continue
            parsed += 1
            g = result.orientation.graph
            assert g == result.graph
            assert sorted(tuple(sorted(a)) for a in result.orientation.arcs) == sorted(g.edges)
    assert parsed and rejected
