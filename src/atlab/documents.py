"""Plain-text document formats for graphs and certificates.

Both formats are versioned, line-oriented and human-diffable, with fixed
field order so canonical documents round-trip byte-exactly. Vertex labels are
JSON-encoded one per line: a string, an integer or an array of labels (tuples
become arrays and are restored as tuples on parse). The writer encodes each
label in one walk, `_label_text`, that checks its type and writes the text
json.dumps gives with compact separators and ASCII escapes. A secondary bare
edge-list format ("u v" per line, 0-indexed) is accepted for graph input
interoperability; it synthesizes labels "0".."n-1".

A certificate's `graph-sha256` is the hash of `serialize_graph(g)`, the
canonical graph text without the provenance line. A canonical embedding is
read in bulk, with one JSON decode for its labels and one split for its
edges, and kept only when it equals the canonical text of the graph read,
the text the hash covers. Any other embedding is read line by line and
re-encoded to check the hash, so an equivalent non-canonical one (spaces
inside a label, an edge written `e 3 1`) is accepted; arcs follow the same
rule, read in edge order when written as the writer writes them. The
per-line reader gives every error message. The parser is strict:
lines have exactly their fields, integers are ASCII digits with an optional
leading `-`, counts are non-negative, labels have the types above and only
blank lines may follow a document's last section; anything else raises
ValueError. The writers raise ValueError on a label the parser would refuse
(a float, a bool, None, ...; the first in vertex order is named), on a
provenance that str.splitlines breaks and on a recipe kind the parser would
refuse, so every document they write reads back.

A certificate of a composite orientation ends with a `recipe <kind>` line,
the word its builder returned: "product" or "corona", the only words written
or read. Documents written before the recipe was reduced to its kind also
list one `rule` line per edge after it. The parser checks the recipe line,
any rule lines and the embedded graph's `provenance` line for form, then
drops them all, so those documents stay readable and a certificate is judged
by its claim alone: level, method, magnitude and orientation.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple, Optional

from .atsolver import ATCertificate
from .eulerian import Orientation, orientation_from_arcs
from .graphs import Graph

GRAPH_MAGIC = "atlab-graph 1"
CERT_MAGIC = "atlab-cert 1"
# the kinds the composite builders of `construct` return
_RECIPE_KINDS = ("product", "corona")

# The string step of json.dumps(..., ensure_ascii=True), in C where CPython has
# it: a JSONEncoder would check each label's type again and build its own
# iterator per call, and the writer encodes one label per vertex.
_encode_str = json.encoder.encode_basestring_ascii
_decode_json = json.JSONDecoder().decode
# an integer field as the writer spells it; int() would also take `+4`, `0_2`
# and non-ASCII digits
_INT = re.compile(r"-?[0-9]+")
# an arcs block as the writer spells it: `a <tail> <head>` lines, one space apart
_ARC_LINES = re.compile(r"a [0-9]+ [0-9]+(?:\na [0-9]+ [0-9]+)*")


_BAD_LABEL = "vertex label part {!r} is not a string, an integer or an array"


def _label(value):
    kind = type(value)
    if kind is str or kind is int:
        return value
    if kind is list:
        return tuple(map(_label, value))
    raise ValueError(_BAD_LABEL.format(value))


def _label_text(label) -> str:
    """The text json.dumps(label, separators=(",", ":"), ensure_ascii=True)
    writes, for a label `_label` reads back: a string, an integer (not a
    bool) or a tuple of labels. Anything else, which json.dumps would write
    and the parser then refuse (a float, a bool, None, ...), raises
    ValueError naming the first such part, depth first."""
    kind = type(label)
    if kind is str:
        return _encode_str(label)
    if kind is int:
        return int.__repr__(label)
    if kind is not tuple:
        raise ValueError(_BAD_LABEL.format(label))
    parts = []
    for part in label:
        kind = type(part)
        if kind is str:
            parts.append(_encode_str(part))
        elif kind is int:
            parts.append(int.__repr__(part))
        else:
            parts.append(_label_text(part))
    return "[" + ",".join(parts) + "]"


def _decode_label(text: str):
    try:
        return _label(_decode_json(text))
    except RecursionError:
        raise ValueError("vertex label nests too deeply") from None


def _fields(line: str, tag: str, count: int) -> list[str]:
    parts = line.split()
    if len(parts) != count or parts[0] != tag:
        raise ValueError(f"expected a {tag!r} line of {count} fields, got {line!r}")
    return parts


def _int(field: str, line: str) -> int:
    if _INT.fullmatch(field) is None:
        raise ValueError(f"expected an integer, got {field!r} in {line!r}")
    return int(field)


def _count(line: str, key: str) -> int:
    count = _int(_fields(line, key, 2)[1], line)
    if count < 0:
        raise ValueError(f"negative count in {line!r}")
    return count


def _pair(line: str, tag: str) -> tuple[int, int]:
    parts = line.split()  # not through _fields: this runs once per edge and arc
    if len(parts) != 3 or parts[0] != tag:
        raise ValueError(f"expected a {tag!r} line of 3 fields, got {line!r}")
    if _INT.fullmatch(parts[1]) is None or _INT.fullmatch(parts[2]) is None:
        raise ValueError(f"expected two integers in {line!r}")
    return int(parts[1]), int(parts[2])


def _check_one_line(key: str, value: str) -> None:
    if value.splitlines() != [value]:
        raise ValueError(f"{key} {value!r} does not fit on one line")


def _check_recipe(kind: str) -> str:
    if kind not in _RECIPE_KINDS:
        raise ValueError(f"recipe kind {kind!r} is not one of {', '.join(_RECIPE_KINDS)}")
    return kind


def _expect_end(lines: list[str], i: int, what: str) -> None:
    for line in lines[i:]:
        if line.strip():
            raise ValueError(f"unexpected line after the {what}: {line!r}")


def serialize_graph(g: Graph, provenance: Optional[str] = None) -> str:
    lines = [GRAPH_MAGIC]
    if provenance:
        _check_one_line("provenance", provenance)
        lines.append(f"provenance {provenance}")
    lines.append(f"vertices {g.n}")
    lines.extend(["v " + text for text in map(_label_text, g.vertices)])
    lines.append(f"edges {g.m}")
    lines.extend([f"e {u} {v}" for u, v in g.edges])
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> tuple[Graph, Optional[str]]:
    return _parse_graph_lines(text.splitlines())


def _parse_graph_lines(lines: list[str]) -> tuple[Graph, Optional[str]]:
    if not lines:
        raise ValueError("empty graph document")
    if lines[0].strip() != GRAPH_MAGIC:
        edges = parse_pairs(lines, "edge-list")
        max_v = max((max(e) for e in edges), default=-1)
        if max_v < 0:
            raise ValueError("edge-list document has no edges")
        return Graph([str(i) for i in range(max_v + 1)], edges), None
    provenance = None
    i = 1
    if i < len(lines) and lines[i].startswith("provenance "):
        provenance = lines[i][len("provenance "):]
        i += 1
    if i == len(lines):
        raise ValueError("graph document missing the vertices header")
    n = _count(lines[i], "vertices")
    i += 1
    if len(lines) <= i + n:
        raise ValueError("truncated graph document")
    labels = []
    for line in lines[i : i + n]:
        if not line.startswith("v "):
            raise ValueError(f"expected a vertex line, got {line!r}")
        labels.append(_decode_label(line[2:]))
    i += n
    m = _count(lines[i], "edges")
    i += 1
    if len(lines) < i + m:
        raise ValueError("truncated graph document")
    edges = [_pair(line, "e") for line in lines[i : i + m]]
    _expect_end(lines, i + m, "edges")
    return Graph(labels, edges), provenance


def parse_pairs(lines: Iterable[str], what: str) -> list[tuple[int, int]]:
    """The integer pairs of bare "u v" lines, skipping blank lines and
    '#' comments; any other line raises ValueError naming it."""
    pairs = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or not all(map(_INT.fullmatch, fields)):
            raise ValueError(f"bad {what} line: {line!r}")
        pairs.append((int(fields[0]), int(fields[1])))
    return pairs


def _sha256(text: str) -> str:
    import hashlib  # here, so importing this module does not load OpenSSL (~3 MB RSS)

    return hashlib.sha256(text.encode()).hexdigest()


def graph_sha256(g: Graph) -> str:
    return _sha256(serialize_graph(g))


class CertificateDocument(NamedTuple):
    """Parsed certificate: the claim and its orientation.

    The parser checks the embedded graph's `provenance` line, the `recipe`
    line and any legacy `rule` lines for form but keeps none of them:
    verify_certificate judges the claim alone, and its diff engines already
    prove a composite's product law (see construct).
    """

    level: int
    method: str
    diff_magnitude: Optional[int]
    orientation: Orientation

    def as_certificate(self) -> ATCertificate:
        return ATCertificate(self.level, self.orientation, self.diff_magnitude, self.method)


def serialize_certificate(
    cert: ATCertificate,
    provenance: Optional[str] = None,
    recipe: Optional[str] = None,
) -> str:
    g = cert.orientation.graph
    graph_text = serialize_graph(g)
    graph_hash = _sha256(graph_text)
    if provenance:
        _check_one_line("provenance", provenance)
        graph_text = graph_text.replace("\n", f"\nprovenance {provenance}\n", 1)
    _check_one_line("method", cert.method)
    mag = "unverified" if cert.diff_magnitude is None else str(cert.diff_magnitude)
    lines = [
        CERT_MAGIC,
        f"level {cert.level}",
        f"method {cert.method}",
        f"diff {mag}",
        f"graph-sha256 {graph_hash}",
        "graph-begin",
        graph_text + "graph-end",
        f"arcs {g.m}",
    ]
    arcs = zip(g.edges, cert.orientation.tails)
    lines.extend([f"a {t} {v if t == u else u}" for (u, v), t in arcs])
    if recipe is not None:
        lines.append(f"recipe {_check_recipe(recipe)}")
    return "\n".join(lines) + "\n"


def _canonical_graph(lines: list[str], text: str) -> Optional[Graph]:
    """The graph whose canonical text is `text`, the joined `lines` of a graph
    document without provenance, or None when `text` is not canonical.

    Reads all labels with one JSON decode and all edges with one split. The
    decode alone would take lines such as `v 1,2` / `v [3` / `v 4]` as three
    labels, so the graph is kept only if it serializes back to `text`: then
    the per-line reader, which gives every error message, reads the same
    graph from it."""
    try:
        n = int(lines[1][len("vertices "):])
        labels = _decode_json("[" + ",".join([line[2:] for line in lines[2 : 2 + n]]) + "]")
        fields = " ".join(lines[3 + n :]).split()  # e u v e u v ...
        edges = zip(map(int, fields[1::3]), map(int, fields[2::3]))
        graph = Graph(list(map(_label, labels)), edges)
    except (ValueError, IndexError, RecursionError):
        return None
    return graph if serialize_graph(graph) == text else None


def _orientation(graph: Graph, lines: list[str]) -> Orientation:
    """The orientation an arcs block gives `graph`. When every line is
    `a <tail> <head>` and arc k is edge k, as the writer spells them, the
    tails are read in edge order; any other block is matched arc by arc."""
    block = "\n".join(lines)
    if _ARC_LINES.fullmatch(block):
        fields = block.split()  # a t h a t h ...
        tails = list(map(int, fields[1::3]))
        arcs = zip(tails, map(int, fields[2::3]))
        if [(t, h) if t < h else (h, t) for t, h in arcs] == list(graph.edges):
            return Orientation(graph, tails)
    return orientation_from_arcs(graph, [_pair(line, "a") for line in lines])


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

    level = _int(expect(1, "level"), lines[1])
    method = expect(2, "method")
    diff_text = expect(3, "diff")
    diff_magnitude = None if diff_text == "unverified" else _int(diff_text, lines[3])
    claimed_hash = expect(4, "graph-sha256")
    if lines[5] != "graph-begin":
        raise ValueError("missing graph-begin")
    try:
        end = lines.index("graph-end", 6)
    except ValueError:
        raise ValueError("missing graph-end") from None
    if lines[6].strip() != GRAPH_MAGIC:
        raise ValueError(f"embedded graph must start with {GRAPH_MAGIC!r}")
    body = lines[6:end]
    if len(body) > 1 and body[1].startswith("provenance "):
        del body[1]  # the hash covers the graph text without it
    text = "\n".join(body) + "\n"
    graph = _canonical_graph(body, text)
    if graph is not None:
        digest = _sha256(text)
    else:  # with its provenance line, so that a second one is refused
        graph, _ = _parse_graph_lines(lines[6:end])
        digest = graph_sha256(graph)
    if digest != claimed_hash:
        raise ValueError("embedded graph does not match its recorded hash")
    i = end + 1
    m = _count(lines[i], "arcs")
    if m != graph.m:
        raise ValueError(f"certificate lists {m} arcs for a graph with {graph.m} edges")
    i += 1
    if len(lines) < i + m:
        raise ValueError("truncated certificate document")
    orientation = _orientation(graph, lines[i : i + m])
    i += m
    if i < len(lines) and lines[i].startswith("recipe "):
        _check_recipe(_fields(lines[i], "recipe", 2)[1])
        i += 1
        # legacy `rule <edge> <R1|R2|R3> <factor edge, or - for a hub link>`
        while i < len(lines) and lines[i].startswith("rule "):
            _, idx, _, src = _fields(lines[i], "rule", 4)
            _int(idx, lines[i])
            if src != "-":
                _int(src, lines[i])
            i += 1
    _expect_end(lines, i, "certificate")
    return CertificateDocument(level, method, diff_magnitude, orientation)
