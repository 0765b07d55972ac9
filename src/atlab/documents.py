"""Plain-text document formats for graphs and certificates.

Both formats are versioned, line-oriented and human-diffable, with fixed
field order so canonical documents round-trip byte-exactly. Vertex labels are
JSON-encoded one per line (tuples become arrays and are restored as tuples on
parse). A secondary bare edge-list format ("u v" per line, 0-indexed) is
accepted for graph input interoperability; it synthesizes labels "0".."n-1".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .atsolver import ATCertificate
from .construct import ConstructionRecipe
from .eulerian import Orientation
from .graphs import Graph

GRAPH_MAGIC = "atlab-graph 1"
CERT_MAGIC = "atlab-cert 1"


def _encode_label(label) -> str:
    return json.dumps(label, separators=(",", ":"), ensure_ascii=True)


def _decode_label(text: str):
    def detuple(x):
        return tuple(detuple(v) for v in x) if isinstance(x, list) else x

    return detuple(json.loads(text))


def serialize_graph(g: Graph, provenance: Optional[str] = None) -> str:
    lines = [GRAPH_MAGIC]
    if provenance:
        lines.append(f"provenance {provenance}")
    lines.append(f"vertices {g.n}")
    for label in g.vertices:
        lines.append(f"v {_encode_label(label)}")
    lines.append(f"edges {g.m}")
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> tuple[Graph, Optional[str]]:
    try:
        return _parse_graph_lines(text.splitlines())
    except IndexError:
        raise ValueError("truncated graph document") from None


def _parse_graph_lines(lines: list[str]) -> tuple[Graph, Optional[str]]:
    if not lines:
        raise ValueError("empty graph document")
    if lines[0].strip() != GRAPH_MAGIC:
        return _parse_edge_list(lines), None
    provenance = None
    i = 1
    if i < len(lines) and lines[i].startswith("provenance "):
        provenance = lines[i][len("provenance "):]
        i += 1
    if i >= len(lines) or not lines[i].startswith("vertices "):
        raise ValueError("graph document missing the vertices header")
    n = int(lines[i].split()[1])
    i += 1
    labels = []
    for _ in range(n):
        if not lines[i].startswith("v "):
            raise ValueError(f"expected a vertex line, got {lines[i]!r}")
        labels.append(_decode_label(lines[i][2:]))
        i += 1
    if not lines[i].startswith("edges "):
        raise ValueError("graph document missing the edges header")
    m = int(lines[i].split()[1])
    i += 1
    edges = []
    for _ in range(m):
        parts = lines[i].split()
        if parts[0] != "e":
            raise ValueError(f"expected an edge line, got {lines[i]!r}")
        edges.append((int(parts[1]), int(parts[2])))
        i += 1
    return Graph(labels, edges), provenance


def _parse_edge_list(lines: list[str]) -> Graph:
    edges = []
    max_v = -1
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge-list line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_v = max(max_v, u, v)
    if max_v < 0:
        raise ValueError("edge-list document has no edges")
    return Graph([str(i) for i in range(max_v + 1)], edges)


def graph_sha256(g: Graph) -> str:
    import hashlib  # here, so importing this module does not load OpenSSL (~3 MB RSS)

    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


@dataclass(frozen=True)
class CertificateDocument:
    """Parsed certificate: the claim, the orientation and optional recipe tags."""

    level: int
    method: str
    diff_magnitude: Optional[int]
    graph: Graph
    orientation: Orientation
    graph_provenance: Optional[str]
    recipe_kind: Optional[str]
    rules: tuple[tuple[int, str, Optional[int]], ...]

    def as_certificate(self) -> ATCertificate:
        return ATCertificate(self.level, self.orientation, self.diff_magnitude, self.method)


def serialize_certificate(
    cert: ATCertificate,
    provenance: Optional[str] = None,
    recipe: Optional[ConstructionRecipe] = None,
) -> str:
    g = cert.orientation.graph
    lines = [CERT_MAGIC]
    lines.append(f"level {cert.level}")
    lines.append(f"method {cert.method}")
    mag = "unverified" if cert.diff_magnitude is None else str(cert.diff_magnitude)
    lines.append(f"diff {mag}")
    lines.append(f"graph-sha256 {graph_sha256(g)}")
    lines.append("graph-begin")
    lines.append(serialize_graph(g, provenance).rstrip("\n"))
    lines.append("graph-end")
    lines.append(f"arcs {g.m}")
    for t, h in cert.orientation.arcs:
        lines.append(f"a {t} {h}")
    if recipe is not None:
        lines.append(f"recipe {recipe.kind}")
        for idx, (rule, src) in enumerate(recipe.edge_rules):
            lines.append(f"rule {idx} {rule} {'-' if src is None else src}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CertificateDocument:
    try:
        return _parse_certificate_lines(text.splitlines())
    except IndexError:
        raise ValueError("truncated certificate document") from None


def _parse_certificate_lines(lines: list[str]) -> CertificateDocument:
    if not lines or lines[0].strip() != CERT_MAGIC:
        raise ValueError("not a certificate document")

    def expect(i: int, key: str) -> str:
        if not lines[i].startswith(key + " "):
            raise ValueError(f"expected {key!r} line, got {lines[i]!r}")
        return lines[i][len(key) + 1 :]

    level = int(expect(1, "level"))
    method = expect(2, "method")
    diff_text = expect(3, "diff")
    diff_magnitude = None if diff_text == "unverified" else int(diff_text)
    claimed_hash = expect(4, "graph-sha256")
    if lines[5] != "graph-begin":
        raise ValueError("missing graph-begin")
    end = lines.index("graph-end", 6)
    graph, provenance = parse_graph("\n".join(lines[6:end]) + "\n")
    if graph_sha256(graph) != claimed_hash:
        raise ValueError("embedded graph does not match its recorded hash")
    i = end + 1
    m = int(expect(i, "arcs"))
    if m != graph.m:
        raise ValueError(f"certificate lists {m} arcs for a graph with {graph.m} edges")
    i += 1
    arcs = []
    for _ in range(m):
        parts = lines[i].split()
        if parts[0] != "a":
            raise ValueError(f"expected an arc line, got {lines[i]!r}")
        arcs.append((int(parts[1]), int(parts[2])))
        i += 1
    from .eulerian import orientation_from_arcs

    orientation = orientation_from_arcs(graph, arcs)
    recipe_kind = None
    rules: list[tuple[int, str, Optional[int]]] = []
    if i < len(lines) and lines[i].startswith("recipe "):
        recipe_kind = lines[i].split()[1]
        i += 1
        while i < len(lines) and lines[i].startswith("rule "):
            parts = lines[i].split()
            src = None if parts[3] == "-" else int(parts[3])
            rules.append((int(parts[1]), parts[2], src))
            i += 1
    return CertificateDocument(
        level,
        method,
        diff_magnitude,
        graph,
        orientation,
        provenance,
        recipe_kind,
        tuple(rules),
    )
