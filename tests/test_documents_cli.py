import re

import pytest

from atlab import (
    at_bipartite,
    corona,
    corona_orientation,
    cycle,
    documents,
    eulerian,
    hypercube,
    orient,
    path,
    run_suite,
)
from atlab.atsolver import bounded_outdegree_orientation
from atlab.cli import main
from atlab.documents import (
    CertificateDocument,
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


def _with_legacy_rules(doc: str, g1, g2) -> str:
    """A corona recipe certificate as version-1 writers emitted it before the
    recipe was reduced to its kind: one `rule` line per edge after the
    `recipe` line."""
    rules = [("R1", k) for k in range(g1.m)]
    for _ in range(g1.n):
        rules += [("R2", k) for k in range(g2.m)] + [("R3", "-")] * g2.n
    return doc + "".join(f"rule {i} {rule} {src}\n" for i, (rule, src) in enumerate(rules))


def test_certificate_with_recipe_tags():
    q2, p2 = hypercube(2), path(2)
    d1 = bounded_outdegree_orientation(q2, 1)
    d2 = orient(p2, [0])
    d, recipe = corona_orientation(q2, d1, p2, d2)
    from atlab import ATCertificate

    cert = ATCertificate(d.max_outdegree() + 1, d, None, "product-law+closed-form")
    doc = serialize_certificate(cert, recipe=recipe)
    lines = doc.splitlines()
    assert lines.count("recipe corona") == 1 and lines[-1] == "recipe corona"
    assert not [line for line in lines if line.startswith("rule ")]
    parsed = parse_certificate(doc)
    # the recipe line is checked for form and dropped: the claim alone is read
    assert parsed == parse_certificate(serialize_certificate(cert))
    assert parsed.as_certificate() == cert
    legacy = _with_legacy_rules(doc, q2, p2)
    rules = [line for line in legacy.splitlines() if line.startswith("rule ")]
    assert len(rules) == d.graph.m
    assert rules[0] == "rule 0 R1 0" and rules[-1] == f"rule {d.graph.m - 1} R3 -"
    old = parse_certificate(legacy)
    assert old == parsed
    # the parser keeps no rule line, but still checks each one
    for bad in ("rule 0 R1", "rule 0 R1 x", "rule x R1 0", "rule 0 R1 0 0"):
        with pytest.raises(ValueError):
            parse_certificate(legacy.replace(rules[0], bad))


def test_recipe_certificate_roundtrip_bit_exact():
    from atlab import ATCertificate, acyclic_certificate

    q3, c3 = hypercube(3), cycle(3)
    d, recipe = corona_orientation(
        q3, at_bipartite(q3).certificate.orientation, c3, acyclic_certificate(c3).orientation
    )
    doc = serialize_certificate(ATCertificate(4, d, 4, "product-law"), "Q3 o C3", recipe)
    parsed = parse_certificate(doc)
    # the recipe is passed back in, as the provenance is
    assert serialize_certificate(parsed.as_certificate(), "Q3 o C3", recipe) == doc


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
    assert main(["at", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "AT = 3" in out


def test_cli_gen_tree_pruefer(tmp_path, capsys):
    gpath = tmp_path / "t.graph"
    assert main(["gen", "tree", "--pruefer", "1,1", "-o", str(gpath)]) == 0
    assert "vertices=4 edges=3" in capsys.readouterr().out


def test_cli_gen_bad_params(capsys):
    assert main(["gen", "hypercube", "0"]) == 2
    assert "error" in capsys.readouterr().err
    for edges, chunk in [("", "''"), ("0-1,1-2-3", "'1-2-3'"), ("0-x", "'0-x'")]:
        assert main(["gen", "tree", "--edges", edges]) == 2
        assert f"error: bad --edges pair {chunk}, expected u-v" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["gen", "path", "3"], 0, serialize_graph(path(3), "path n=3"),
         "vertices=3 edges=2\n"),
        (["gen", "tree"], 2, "", "error: gen tree needs --pruefer or --edges\n"),
        (["diff"], 2, "", "error: diff needs --cert, or a graph document plus an arc file\n"),
        (["at", "{empty}"], 2, "", "error: empty graph document\n"),
    ],
    ids=["gen-to-stdout", "gen-tree-without-input", "diff-without-input", "empty-graph"],
)
def test_cli_output_and_usage_branches(tmp_path, capsys, argv, code, out, err):
    # without -o, gen writes the document to stdout and its summary to stderr
    empty = tmp_path / "empty.graph"
    empty.write_text("")
    assert main([a.format(empty=empty) for a in argv]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "argv, tag",
    [
        (["at"], "e"),
        (["at"], "vertices"),
        (["verify"], "level"),
        (["verify"], "diff"),
        (["verify"], "a"),
        (["verify"], "rule"),
        (["gen", "tree", "--pruefer", "1,x"], "--pruefer"),
        (["theorems", "--n", "1..x"], "--n"),
    ],
    ids=["edge", "vertices", "level", "diff", "arc", "legacy-rule", "pruefer", "range"],
)
def test_cli_non_integer_field_names_its_line_or_flag(tmp_path, capsys, argv, tag):
    named = tag
    if not tag.startswith("--"):  # a document field: the first `tag` line ends in x
        if argv == ["at"]:
            lines = serialize_graph(cycle(4)).splitlines()
        else:
            from atlab import ATCertificate

            q2, p2 = hypercube(2), path(2)
            d, recipe = corona_orientation(
                q2, bounded_outdegree_orientation(q2, 1), p2, orient(p2, [0]))
            cert = serialize_certificate(ATCertificate(3, d, 1, "product-law"), recipe=recipe)
            lines = _with_legacy_rules(cert, q2, p2).splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith(tag + " "))
        lines[k] = named = lines[k].rsplit(" ", 1)[0] + " x"
        doc = tmp_path / "doc"
        doc.write_text("\n".join(lines) + "\n")
        argv = [*argv, str(doc)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "invalid literal" not in err


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
    assert main(["at", str(gpath), "--cert", str(cpath)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cpath)]) == 0
    assert "verdict: accepted" in capsys.readouterr().out


def test_cli_verify_rejects_a_recorded_magnitude_the_engines_do_not_recompute(
    tmp_path, capsys
):
    gpath = tmp_path / "q3.graph"
    cpath = tmp_path / "q3.cert"
    main(["gen", "hypercube", "3", "-o", str(gpath)])
    assert main(["at", str(gpath), "--cert", str(cpath)]) == 0
    capsys.readouterr()
    doc = cpath.read_text()
    assert "\ndiff 4\n" in doc
    cpath.write_text(doc.replace("\ndiff 4\n", "\ndiff 5\n"))
    assert main(["verify", str(cpath)]) == 1
    out = capsys.readouterr().out
    assert "verdict: rejected" in out
    assert "note: recorded magnitude 5 != recomputed 4" in out


def test_cli_diff_modes(tmp_path, capsys):
    gpath = tmp_path / "c4.graph"
    main(["gen", "cycle", "4", "-o", str(gpath)])
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("0 1\n1 2\n2 3\n3 0\n")
    capsys.readouterr()
    assert main(["diff", str(gpath), str(arcs)]) == 0
    out = capsys.readouterr().out
    assert "even 2" in out and "odd 0" in out and "diff 2" in out
    # the arc file and a bare edge-list graph share one parser, which names
    # the line it cannot read
    for bad in ["0 1 2", "0 x", "7"]:
        arcs.write_text(f"# arcs\n0 1\n{bad}\n")
        assert main(["diff", str(gpath), str(arcs)]) == 2
        assert f"error: bad arc line: {bad!r}" in capsys.readouterr().err
        assert main(["at", str(arcs)]) == 2
        assert f"error: bad edge-list line: {bad!r}" in capsys.readouterr().err


def test_cli_diff_refuses_a_certificate_beside_graph_or_arcs(tmp_path, capsys):
    # C4's certificate with C3's graph and arcs: the tally would be C4's,
    # silently ignoring both files, so diff reads one input or the other
    c4, c3 = tmp_path / "c4.graph", tmp_path / "c3.graph"
    cert = tmp_path / "c4.cert"
    main(["gen", "cycle", "4", "-o", str(c4)])
    main(["gen", "cycle", "3", "-o", str(c3)])
    main(["at", str(c4), "--cert", str(cert)])
    arcs = tmp_path / "arcs3.txt"
    arcs.write_text("0 1\n1 2\n2 0\n")
    capsys.readouterr()
    for extra in ([str(c3), str(arcs)], [str(c3)]):
        assert main(["diff", "--cert", str(cert), *extra]) == 2
        assert capsys.readouterr() == (
            "", "error: diff takes --cert or a graph document plus an arc file, not both\n"
        )
    assert main(["diff", "--cert", str(cert)]) == 0
    assert "diff 2" in capsys.readouterr().out
    assert main(["diff", str(c3), str(arcs)]) == 0
    assert "diff 0" in capsys.readouterr().out


def test_cli_diff_past_enum_cap(tmp_path, capsys):
    # Q3 o C3 from its factors' certificates: 60 arcs, over ENUM_CAP 24, but
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


def test_cli_diff_over_the_tally_gate_names_only_enum_cap(tmp_path, capsys):
    # Q5's closed-form certificate has a strongly connected component of 32
    # arcs, past ENUM_CAP 24; `atlab diff` runs the tally alone, so the
    # message names the one cap it reads, which no flag raises
    gpath = tmp_path / "q5.graph"
    cpath = tmp_path / "q5.cert"
    main(["gen", "hypercube", "5", "-o", str(gpath)])
    assert main(["at", str(gpath), "--cert", str(cpath)]) == 0
    capsys.readouterr()
    assert main(["diff", "--cert", str(cpath)]) == 3
    err = capsys.readouterr().err
    assert "enumeration cap 24" in err and "polynomial" not in err and "raise" not in err


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
    # an empty range is a usage error, not the default sweep
    assert main(["theorems", "--claim", "lemma3.2", "--n", "5..3"]) == 2
    assert "empty range" in capsys.readouterr().err


def test_cli_theorems_that_selects_no_check_is_a_usage_error(capsys):
    # a run that checked nothing must not pass
    for argv, selection in [
        (["--claim", "lemma9.9"], "--claim lemma9.9"),
        (["--claim", "toroidal", "--max", "2"], "--claim toroidal --max 2"),
    ]:
        assert main(["theorems", *argv]) == 2
        assert f"no check selected by {selection}" in capsys.readouterr().err


def test_cli_theorems_rejects_a_negative_pair_count(capsys):
    assert main(["theorems", "--claim", "lemma3.5", "--pairs", "-1"]) == 2
    assert "--pairs must be >= 0" in capsys.readouterr().err
    assert main(["theorems", "--claim", "lemma3.5", "--pairs", "0"]) == 0
    assert "3 checks" in capsys.readouterr().out


def test_cli_theorems_table_columns(capsys):
    assert main(["theorems", "--claim", "lemma3.6", "--table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, dashes, rows = lines[0], lines[1], lines[2:-1]
    assert header.split() == ["claim", "instance", "predicted", "computed", "verdict", "millis"]
    assert dashes == "-" * len(header)
    reports = run_suite(["lemma3.6"])
    assert len(rows) == len(reports) == 3 and lines[-1].startswith("3 checks")
    # each cell starts under its heading, padded to two spaces before the next
    starts = [header.index(h) for h in header.split()] + [None]
    for line, r in zip(rows, reports):
        cells = [line[a:b] for a, b in zip(starts, starts[1:])]
        assert [c.rstrip() for c in cells[:-1]] == [
            r.claim, r.instance, r.predicted, r.computed, r.verdict
        ]
        assert all(c.endswith("  ") for c in cells[:-1])
        float(cells[-1])
    assert {r.predicted for r in reports} == {"{2, 3}", "3"}


def test_cli_at_past_the_chromatic_budget(tmp_path, capsys):
    # C65's one block is past chromatic_block_cap; its odd cycle still
    # gives chi >= 3, so the answer is exact, and the reason names the bound
    gpath = tmp_path / "c65.graph"
    main(["gen", "cycle", "65", "-o", str(gpath)])
    capsys.readouterr()
    assert main(["at", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "AT = 3" in out and "lower-bound reason: odd-cycle" in out


def test_cli_at_on_a_graph_past_every_diff_engine(tmp_path, capsys):
    # C14400's certificate is past both engines' gates, and the coefficient
    # gate's bound 2^14400 is too long for str(int): the closed form answers
    gpath = tmp_path / "c14400.graph"
    main(["gen", "cycle", "14400", "-o", str(gpath)])
    capsys.readouterr()
    assert main(["at", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "AT = 2" in out and "method bipartite-closed-form" in out


def test_cli_theorems_json(capsys):
    import dataclasses
    import json

    from atlab.theorems import ClaimReport

    assert main(["theorems", "--claim", "toroidal", "--max", "4", "--json"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert {r["instance"] for r in rows} == {"C3 x C3", "C3 x C4", "C4 x C4"}
    assert all(r["verdict"] == "pass" for r in rows)
    # the writer names the fields: each row carries every ClaimReport field,
    # in declaration order
    fields = [f.name for f in dataclasses.fields(ClaimReport)]
    assert all(list(r) == fields for r in rows)
    assert captured.err == "3 checks: 3 pass, 0 fail, 0 inconclusive\n"


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
    assert main(["at", str(raw)]) == 0
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
    parsed = parse_certificate(with_provenance)
    assert parsed.orientation.graph == g and parsed.orientation.tails == cert.orientation.tails


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


@pytest.mark.parametrize("command", ["at", "verify"])
def test_a_directory_or_missing_file_is_an_error_not_a_traceback(tmp_path, capsys, command):
    # every OS error on the input path (IsADirectoryError, FileNotFoundError,
    # PermissionError, ...) ends in "error: ..." and exit 2
    for target in (tmp_path, tmp_path / "absent.txt"):
        assert main([command, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err


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


@pytest.mark.parametrize(
    "label",
    [1.5, True, None, frozenset({"a"}), ("a", 2.5), ("a", (False,)), b"0"],
    ids=["float", "bool", "none", "frozenset", "tuple-float", "nested-bool", "bytes"],
)
def test_writers_refuse_labels_the_reader_refuses(label):
    from atlab import ATCertificate, Graph

    g = Graph(["0", label], [(0, 1)])
    cert = ATCertificate(2, orient(g, [0]), 1, "acyclic")
    with pytest.raises(ValueError, match="vertex label"):
        serialize_graph(g)
    with pytest.raises(ValueError, match="vertex label"):
        serialize_certificate(cert)
    # the same shapes of label in the reader's types write and read back
    ok = Graph(["0", ("a", 2, ("b",))], [(0, 1)])
    assert parse_graph(serialize_graph(ok))[0] == ok
    assert parse_certificate(serialize_certificate(ATCertificate(
        2, orient(ok, [0]), 1, "acyclic"))).orientation.graph == ok


# characters JSON must escape or that a careless encoder gets wrong: the C0
# controls, DEL, quotes and backslashes, lone and paired surrogates, non-BMP
_AWKWARD = [chr(c) for c in range(0x20)] + [
    "\x7f", '"', "\\", "/", "a", " ", "\u00e9", "\u20ac", "\ud800", "\udfff",
    "\ud834\udd1e", "\U0001d11e", "\U0010ffff", "\ufeff"]


def _json_label(rng, depth: int = 0):
    """A label the reader takes: a string of awkward characters (maybe
    empty), an integer (maybe negative or past 64 bits) or a tuple of
    labels (maybe empty), nested at most 3 deep."""
    kind = rng.choice(["str", "int", "tuple"] if depth < 3 else ["str", "int"])
    if kind == "str":
        return "".join(rng.choice(_AWKWARD) for _ in range(rng.randint(0, 5)))
    if kind == "int":
        return rng.choice([1, -1]) * rng.randint(0, 2 ** rng.choice([3, 31, 64, 65, 200]))
    return tuple(_json_label(rng, depth + 1) for _ in range(rng.randint(0, 3)))


def test_label_text_writes_what_json_dumps_writes():
    import json
    import random

    rng = random.Random(3535)
    labels = ["", (), ((),), (("", ()),), -(2**64), 2**64, 0, "\x7f\x00\ud800"]
    labels += [_json_label(rng) for _ in range(3000)]

    def depth(label):
        return 1 + max(map(depth, label), default=0) if type(label) is tuple else 0

    assert max(map(depth, labels)) == 3
    for label in labels:
        expect = json.dumps(label, separators=(",", ":"), ensure_ascii=True)
        assert documents._label_text(label) == expect, label


def test_writers_name_the_first_bad_label_in_vertex_order():
    from atlab import ATCertificate, Graph

    g = Graph(["0", ("a", 1.5), None], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="vertex label part 1.5 is"):
        serialize_graph(g)
    with pytest.raises(ValueError, match="vertex label part 1.5 is"):
        serialize_certificate(ATCertificate(2, orient(g, [0, 1]), 1, "acyclic"))


# every break that str.splitlines, and so the parser, splits a line on
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
def test_writers_refuse_a_provenance_the_reader_would_split(brk):
    from atlab import ATCertificate

    cert = ATCertificate(2, orient(path(2), [0]), 1, "acyclic")
    for provenance in (f"a{brk}b", f"a{brk}", brk):
        with pytest.raises(ValueError, match="provenance"):
            serialize_graph(path(2), provenance)
        with pytest.raises(ValueError, match="provenance"):
            serialize_certificate(cert, provenance)


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
def test_writer_refuses_a_method_the_reader_would_split(brk):
    from atlab import ATCertificate

    for method in (f"a{brk}b", f"acyclic{brk}", brk):
        cert = ATCertificate(2, orient(path(2), [0]), 1, method)
        with pytest.raises(ValueError, match="method"):
            serialize_certificate(cert)


@pytest.mark.parametrize("kind", ["", "my kind", "corona\n", "a\tb", "\u2028", " corona"])
def test_writer_refuses_a_recipe_kind_that_is_not_one_word(kind):
    from atlab import ATCertificate

    cert = ATCertificate(2, orient(path(2), [0]), 1, "acyclic")
    with pytest.raises(ValueError, match="recipe kind"):
        serialize_certificate(cert, recipe=kind)


@pytest.mark.parametrize("kind", ["banana", "rule", "products", "Corona"])
def test_recipe_kinds_are_the_words_the_builders_return(tmp_path, capsys, kind):
    # a recipe names the construction that built the orientation, so the
    # writer and the parser take only "product" and "corona"; `atlab verify`
    # refuses any other word as a usage error before it checks anything
    from atlab import at_exact

    cert = at_exact(cycle(4)).certificate
    with pytest.raises(ValueError, match=f"recipe kind {kind!r} is not one of product, corona"):
        serialize_certificate(cert, "C4", kind)
    doc = serialize_certificate(cert, "C4", "corona").replace("recipe corona", f"recipe {kind}")
    with pytest.raises(ValueError, match="recipe kind"):
        parse_certificate(doc)
    cpath = tmp_path / "c4.cert"
    cpath.write_text(doc)
    assert main(["verify", str(cpath)]) == 2
    assert capsys.readouterr() == (
        "", f"error: recipe kind {kind!r} is not one of product, corona\n")


def _count_label_decodes(monkeypatch) -> list:
    """Record each line the per-line reader decodes a label from."""
    decoded = []
    decode = documents._decode_label

    def counted(text):
        decoded.append(text)
        return decode(text)

    monkeypatch.setattr(documents, "_decode_label", counted)
    return decoded


def test_every_document_a_writer_returns_reads_back(monkeypatch):
    import random

    from atlab import ATCertificate

    decoded = _count_label_decodes(monkeypatch)
    rng = random.Random(2505)
    alphabet = ["a", " ", "\t", "\x1f", "\u00e9", "#", "provenance", "graph-end",
                *LINE_BREAKS]
    g = corona(cycle(3), path(2))
    d = bounded_outdegree_orientation(g, 2)
    cert = ATCertificate(3, d, None, "acyclic")
    written = refused = 0
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        recipe = rng.choice([None, text, "product", "corona"])
        try:
            graph_doc = serialize_graph(g, text)
            cert_doc = serialize_certificate(cert, text, recipe)
        except ValueError:
            refused += 1
            continue
        written += 1
        assert parse_graph(graph_doc) == (g, text or None)
        del decoded[:]
        parsed = parse_certificate(cert_doc)
        assert not decoded  # a certificate as written is read in bulk
        assert parsed.as_certificate() == cert
        assert serialize_certificate(parsed.as_certificate(), text, recipe) == cert_doc
    assert written and refused


def _random_label(rng, depth: int = 0):
    """A string of awkward characters, a possibly negative integer, or a
    tuple of labels nested at most 3 deep."""
    kind = rng.choice(["str", "int", "tuple"] if depth < 3 else ["str", "int"])
    if kind == "str":
        alphabet = ["a", "A", " ", '"', "\\", "/", ",", "[", "]", "é", "€", "\U0001d11e"]
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
    if kind == "int":
        return rng.randint(-10**6, 10**6)
    return tuple(_random_label(rng, depth + 1) for _ in range(rng.randint(1, 3)))


def _respell_label(label) -> str:
    """`label` as JSON that is not the writer's: every string character a
    \\uXXXX escape and a space after every comma."""
    if isinstance(label, str):
        units = label.encode("utf-16-be")
        codes = [int.from_bytes(units[k : k + 2], "big") for k in range(0, len(units), 2)]
        return '"' + "".join(f"\\u{c:04x}" for c in codes) + '"'
    if isinstance(label, int):
        return str(label)
    return "[" + ", ".join(map(_respell_label, label)) + "]"


def _random_certificates():
    import random

    from atlab import ATCertificate, Graph

    rng = random.Random(3303)
    for _ in range(60):
        n, labels = rng.randint(2, 9), set()
        while len(labels) < n:
            labels.add(_random_label(rng))
        labels = sorted(labels, key=repr)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(labels, rng.sample(pairs, rng.randint(1, len(pairs))))
        d = orient(g, [rng.choice(e) for e in g.edges])
        magnitude = rng.choice([None, rng.randint(-5, 5)])
        cert = ATCertificate(d.max_outdegree() + 1, d, magnitude, "random")
        yield rng, cert, rng.choice([None, "random labels"]), rng.choice([None, "product"])


def _respell_graph(doc: str, g) -> str:
    """`doc` with its labels re-spelled and every edge written `e v u`."""
    lines = doc.splitlines()
    first = lines.index(f"vertices {g.n}") + 1
    lines[first : first + g.n] = [f"v {_respell_label(label)}" for label in g.vertices]
    lines[first + g.n + 1 : lines.index("graph-end")] = [f"e {v} {u}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _shuffle_arcs(rng, doc: str) -> str:
    """`doc` with its arc lines out of edge order, if it has two or more."""
    lines = doc.splitlines()
    first = lines.index("graph-end") + 2
    arcs = lines[first : first + int(lines[first - 1].split()[1])]
    shuffled = rng.sample(arcs, len(arcs))
    if shuffled == arcs:
        shuffled.reverse()
    lines[first : first + len(arcs)] = shuffled
    return "\n".join(lines) + "\n"


def test_certificates_with_awkward_labels_round_trip_and_read_the_same_respelled(monkeypatch):
    decoded = _count_label_decodes(monkeypatch)
    for rng, cert, provenance, recipe in _random_certificates():
        d = cert.orientation
        expected = CertificateDocument(cert.level, cert.method, cert.diff_magnitude, d)
        doc = serialize_certificate(cert, provenance, recipe)
        assert parse_certificate(doc) == expected
        assert not decoded
        # arcs out of edge order are matched arc by arc; the graph is still read in bulk
        assert parse_certificate(_shuffle_arcs(rng, doc)) == expected
        assert not decoded
        respelled = _shuffle_arcs(rng, _respell_graph(doc, d.graph))
        assert respelled != doc
        assert parse_certificate(respelled) == expected
        assert len(decoded) == d.graph.n  # read line by line
        del decoded[:]
        raw_digest = _raw_graph_sha256(respelled)
        assert raw_digest != graph_sha256(d.graph)
        with pytest.raises(ValueError, match="recorded hash"):
            parse_certificate(_replace_hash(respelled, raw_digest))
        del decoded[:]


@pytest.mark.parametrize(
    "label_lines",
    [["1,2", "[3", "4]"], ["[1,[2]", "[3]],[4]", "5"]],
    ids=["scalar-split", "array-split"],
)
def test_label_lines_that_decode_only_together_are_rejected(label_lines):
    # joined by commas these lines read as 3 labels; each alone is no label
    graph_text = "".join(
        ["atlab-graph 1\nvertices 3\n", *(f"v {line}\n" for line in label_lines), "edges 0\n"])
    with pytest.raises(ValueError) as per_line:
        parse_graph(graph_text)
    cert = at_bipartite(path(1)).certificate
    lines = serialize_certificate(cert).splitlines()
    begin, end = lines.index("graph-begin"), lines.index("graph-end")
    lines[begin + 1 : end] = graph_text.splitlines()
    doc = _replace_hash("\n".join(lines) + "\n", _raw_graph_sha256("\n".join(lines)))
    with pytest.raises(ValueError) as bulk:
        parse_certificate(doc)
    assert str(bulk.value) == str(per_line.value)


def test_a_second_provenance_line_is_rejected():
    # the hash leaves the provenance line out, so only the vertices header refuses this
    doc = serialize_certificate(at_bipartite(cycle(4)).certificate, "C4")
    twice = doc.replace("provenance C4\n", "provenance C4\nprovenance C4\n")
    with pytest.raises(ValueError, match="expected a 'vertices' line"):
        parse_certificate(twice)


@pytest.mark.parametrize("flag, value", [("--edges", "0-1\n"), ("--pruefer", "1,\n1")])
def test_cli_gen_refuses_a_provenance_over_two_lines(tmp_path, capsys, flag, value):
    gpath = tmp_path / "t.graph"
    assert main(["gen", "tree", flag, value, "-o", str(gpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: provenance ") and repr(value)[1:-1] in err
    assert not gpath.exists()


def _verify_document(name):
    """One of the kinds of certificate `atlab verify` decides differently:
    accepted by the bipartite closed form ("q4"), a corona recipe over both
    budgets ("q4oc5"), a level-search certificate re-checked by the other
    engine ("c3c3"), and AT certificates whose recipe line does not fit the
    orientation, which verify drops as it drops the provenance: a corona
    recipe whose one hub link points out of the hub ("k1ok1"), a corona
    recipe on C4, where no vertex is a hub ("c4"), a product recipe on C4,
    which is no product ("c4product"), and a Q2 x K3 product orientation
    ("q2xk3")."""
    from atlab import (
        ATCertificate,
        acyclic_certificate,
        at_exact,
        cartesian_product,
        complete,
        product_orientation,
    )

    q4 = hypercube(4)
    if name == "q4":
        return serialize_certificate(at_bipartite(q4).certificate, "hypercube n=4")
    if name == "q4oc5":
        c5 = cycle(5)
        d, recipe = corona_orientation(
            q4, at_bipartite(q4).certificate.orientation, c5, acyclic_certificate(c5).orientation
        )
        cert = ATCertificate(d.max_outdegree() + 1, d, None, "product-law")
        return serialize_certificate(cert, "Q4 o C5", recipe)
    if name == "k1ok1":
        cert = ATCertificate(2, orient(corona(path(1), path(1)), [0]), 1, "product-law")
        return serialize_certificate(cert, "K1 o K1", "corona")
    if name in ("c4", "c4product"):
        kind = "corona" if name == "c4" else "product"
        return serialize_certificate(at_exact(cycle(4)).certificate, "C4", kind)
    if name == "q2xk3":
        q2, k3 = hypercube(2), complete(3)
        d, recipe = product_orientation(
            q2, at_bipartite(q2).certificate.orientation, k3, acyclic_certificate(k3).orientation
        )
        cert = ATCertificate(d.max_outdegree() + 1, d, 8, "product-law")
        return serialize_certificate(cert, "Q2 x K3", recipe)
    found = at_exact(cartesian_product(cycle(3), cycle(3))).certificate
    assert found.method == "enumeration"
    return serialize_certificate(found, "C3 x C3")


@pytest.mark.parametrize("name, code, out", [
    ("q4", 0, "verdict: accepted\nmax outdegree 2 (level 3)\n"
              "diff check: bipartite-closed-form -> nonzero\n"
              "note: diff engines over budget; accepted by bipartite closed form\n"),
    ("q4oc5", 3, "verdict: outdegree-only\nmax outdegree 3 (level 4)\n"
                 "note: diff engines over budget; only the outdegree bound was checked\n"),
    ("c3c3", 0, "verdict: accepted\nmax outdegree 3 (level 4)\n"
                "diff check: polynomial -> 2\n"),
    ("k1ok1", 0, "verdict: accepted\nmax outdegree 1 (level 2)\n"
                 "diff check: enumeration -> 1\n"),
    ("c4", 0, "verdict: accepted\nmax outdegree 1 (level 2)\n"
              "diff check: polynomial -> 2\n"),
    ("c4product", 0, "verdict: accepted\nmax outdegree 1 (level 2)\n"
                     "diff check: polynomial -> 2\n"),
    ("q2xk3", 0, "verdict: accepted\nmax outdegree 3 (level 4)\n"
                 "diff check: enumeration -> 8\n"),
])
def test_cli_verify_output_per_diff_route(tmp_path, capsys, name, code, out):
    cpath = tmp_path / f"{name}.cert"
    cpath.write_text(_verify_document(name))
    assert main(["verify", str(cpath)]) == code
    assert capsys.readouterr() == (out, "")


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


# a spelling int() reads but the writer never writes, for each integer field
@pytest.mark.parametrize("written, respelled", [
    ("level 2", "level 0_2"), ("level 2", "level \u0662"), ("diff 2", "diff \uff12"),
    ("arcs 4", "arcs +4"), ("vertices 4", "vertices +4"), ("e 0 1", "e 0 0_1"),
    ("a 0 1", "a +0 1"),
])
def test_integer_fields_are_ascii_digits(written, respelled):
    from atlab import ATCertificate

    cert = ATCertificate(2, orient(cycle(4), [0, 1, 2, 3]), 2, "enumeration")
    doc = serialize_certificate(cert)
    assert written + "\n" in doc
    with pytest.raises(ValueError, match=re.escape(repr(respelled))):
        parse_certificate(doc.replace(written + "\n", respelled + "\n", 1))
    if respelled.startswith(("vertices", "e ")):
        graph_doc = serialize_graph(cycle(4))
        with pytest.raises(ValueError, match=re.escape(repr(respelled))):
            parse_graph(graph_doc.replace(written + "\n", respelled + "\n", 1))
    if respelled.startswith("e "):  # and in the bare edge-list format
        with pytest.raises(ValueError, match=re.escape(repr(respelled[2:]))):
            parse_graph(f"{respelled[2:]}\n1 2\n")
    # leading zeros stay accepted, as a reversed edge `e 1 0` is
    field, _, value = written.rpartition(" ")
    padded = parse_certificate(doc.replace(written + "\n", f"{field} 0{value}\n", 1))
    assert padded.as_certificate() == cert


def test_cli_verify_exit_code_is_the_verdict(tmp_path, capsys):
    # the exit code is a function of verify_certificate's verdict alone, on
    # recipe-bearing and legacy rule-line documents too, and no recipe is
    # reported
    from atlab import verify_certificate

    codes = {"accepted": 0, "rejected": 1, "outdegree-only": 3}
    rng, docs = _mutation_corpus()
    docs += [_mutate(rng, doc) for doc in docs for _ in range(3)]
    docs += [serialize_certificate(cert, provenance, recipe)
             for _, cert, provenance, recipe in _random_certificates()]
    cpath = tmp_path / "doc.cert"
    verdicts = []
    for doc in docs:
        try:
            parsed = parse_certificate(doc)
        except ValueError:
            continue
        verdicts.append(verify_certificate(parsed.as_certificate()).verdict)
        cpath.write_text(doc)
        assert main(["verify", str(cpath)]) == codes[verdicts[-1]]
        assert "recipe" not in capsys.readouterr().out
    assert {"accepted", "rejected"} <= set(verdicts)
    assert sum("recipe " in doc for doc in docs) >= 10


def test_cli_verify_corona_recipe_prints_the_verdict_alone(tmp_path, capsys, monkeypatch):
    # the recorded magnitude 4 is diff(d1) * diff(d2)^8 = 4 * 1^8, which both
    # engines recompute per strongly connected component; the cut sides'
    # diffs are test_construct's test_corona_cut_reports_on_recipe_certificates
    from atlab import ATCertificate, acyclic_certificate

    q3, c3 = hypercube(3), cycle(3)
    d, recipe = corona_orientation(
        q3, at_bipartite(q3).certificate.orientation, c3, acyclic_certificate(c3).orientation
    )
    cpath = tmp_path / "q3oc3.cert"
    cert = ATCertificate(d.max_outdegree() + 1, d, 4, "product-law")
    cpath.write_text(serialize_certificate(cert, "Q3 o C3", recipe))
    assert main(["verify", str(cpath)]) == 0
    assert capsys.readouterr().out == (
        "verdict: accepted\nmax outdegree 3 (level 4)\ndiff check: enumeration -> 4\n")
    # past ENUM_CAP the coefficient engine recomputes the same magnitude
    monkeypatch.setattr(eulerian, "ENUM_CAP", 3)
    assert main(["verify", str(cpath)]) == 0
    assert capsys.readouterr().out == (
        "verdict: accepted\nmax outdegree 3 (level 4)\ndiff check: polynomial -> 4\n")


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
    docs.append(_with_legacy_rules(docs[-1], c3, c3))
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
            assert sorted(tuple(sorted(a)) for a in result.orientation.arcs) == sorted(g.edges)
    assert parsed and rejected
