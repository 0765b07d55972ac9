"""Command-line driver.

Exit codes: 0 definitive answer / all claims pass, 1 verification or claim
failure, 2 usage error, 3 inconclusive (bracket-only answer or over-budget
verification). Output is deterministic for fixed inputs and flags; timing
columns only appear in --table / --json renderings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .atsolver import at_bipartite, at_bounds, at_exact
from .construct import verify_certificate
from .documents import (
    parse_certificate,
    parse_graph,
    serialize_certificate,
    serialize_graph,
)
from .errors import CapacityError
from .eulerian import eulerian_tally_enumerate, one_way_cut_check, orientation_from_arcs
from .graphs import (
    Graph,
    cartesian_product,
    complete,
    corona,
    cycle,
    hypercube,
    path,
    star,
    tree_from_edges,
    tree_from_pruefer,
)
from .options import SolverOptions
from .theorems import run_suite


def _solver_options(args) -> SolverOptions:
    opts = SolverOptions()
    if getattr(args, "enum_cap", None) is not None:
        opts = opts.with_(enum_cap=args.enum_cap)
    if getattr(args, "edge_cap", None) is not None:
        opts = opts.with_(search_edge_cap=args.edge_cap)
    if getattr(args, "poly_budget", None) is not None:
        opts = opts.with_(poly_budget=args.poly_budget)
    if getattr(args, "time_budget", None) is not None:
        opts = opts.with_(time_budget=args.time_budget)
    return opts


def _emit_graph(g: Graph, provenance: str, output: Optional[str]) -> None:
    doc = serialize_graph(g, provenance)
    summary = f"vertices={g.n} edges={g.m}"
    if output:
        with open(output, "w") as fh:
            fh.write(doc)
        print(summary)
    else:
        sys.stdout.write(doc)
        print(summary, file=sys.stderr)


def _load_graph(path_: str) -> tuple[Graph, Optional[str]]:
    with open(path_) as fh:
        return parse_graph(fh.read())


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


# `gen` families built from a size alone
_FAMILIES = {"hypercube": hypercube, "cycle": cycle, "path": path, "star": star,
            "complete": complete}


def cmd_gen(args) -> int:
    family = args.family
    if family in _FAMILIES:
        g = _FAMILIES[family](args.n)
        prov = f"{family} n={args.n}"
    elif family == "tree":
        if args.pruefer is not None:
            seq = [int(x) for x in args.pruefer.split(",")] if args.pruefer else []
            g = tree_from_pruefer(seq)
            prov = f"tree pruefer={args.pruefer}"
        elif args.edges is not None:
            pairs = []
            for chunk in args.edges.split(","):
                u, v = chunk.split("-")
                pairs.append((int(u), int(v)))
            n = max(max(u, v) for u, v in pairs) + 1
            g = tree_from_edges(n, pairs)
            prov = f"tree edges={args.edges}"
        else:
            raise ValueError("gen tree needs --pruefer or --edges")
    else:
        raise ValueError(f"unknown family {family!r}")
    _emit_graph(g, prov, args.output)
    return 0


def cmd_product(args) -> int:
    g1, p1 = _load_graph(args.g1)
    g2, p2 = _load_graph(args.g2)
    g = cartesian_product(g1, g2)
    _emit_graph(g, f"product ({p1 or '?'}) ({p2 or '?'})", args.output)
    return 0


def cmd_corona(args) -> int:
    g1, p1 = _load_graph(args.g1)
    g2, p2 = _load_graph(args.g2)
    g = corona(g1, g2)
    _emit_graph(g, f"corona ({p1 or '?'}) ({p2 or '?'})", args.output)
    return 0


def cmd_at(args) -> int:
    g, prov = _load_graph(args.graph)
    opts = _solver_options(args)
    if args.bipartite:
        result = at_bipartite(g, opts)
    elif args.bounds:
        result = at_bounds(g, opts)
    else:
        result = at_exact(g, opts)
    if result.is_exact:
        print(f"AT = {result.value}")
    else:
        print(f"AT in [{result.lo}, {result.hi}]")
    print(f"lower-bound reason: {result.lower_bound_reason}")
    if result.certificate is not None:
        cert = result.certificate
        print(
            f"certificate: level {cert.level}, max outdegree "
            f"{cert.orientation.max_outdegree()}, method {cert.method}"
        )
        if args.cert:
            with open(args.cert, "w") as fh:
                fh.write(serialize_certificate(cert, prov))
            print(f"certificate written to {args.cert}")
    return 0 if result.is_exact else 3


def cmd_diff(args) -> int:
    opts = _solver_options(args)
    if args.cert:
        with open(args.cert) as fh:
            doc = parse_certificate(fh.read())
        orientation = doc.orientation
    else:
        if not args.graph or not args.arcs:
            raise ValueError("diff needs --cert, or a graph document plus an arc file")
        g, _ = _load_graph(args.graph)
        with open(args.arcs) as fh:
            arcs = []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                u, v = line.split()
                arcs.append((int(u), int(v)))
        orientation = orientation_from_arcs(g, arcs)
    tally = eulerian_tally_enumerate(orientation, opts)
    print(f"even {tally.even_count}")
    print(f"odd {tally.odd_count}")
    print(f"diff {tally.diff}")
    return 0


def cmd_verify(args) -> int:
    with open(args.cert) as fh:
        doc = parse_certificate(fh.read())
    opts = _solver_options(args)
    report = verify_certificate(doc.as_certificate(), options=opts)
    print(f"verdict: {report.verdict}")
    print(f"max outdegree {report.max_outdegree} (level {report.level})")
    if report.diff_method is not None:
        mag = "nonzero" if report.diff_magnitude is None else report.diff_magnitude
        print(f"diff check: {report.diff_method} -> {mag}")
    for msg in report.messages:
        print(f"note: {msg}")
    if report.verdict == "accepted" and doc.recipe_kind == "corona":
        hubs, leaves = [], []
        for i, lab in enumerate(doc.graph.vertices):
            is_hub = isinstance(lab, tuple) and len(lab) == 2 and lab[1] == "hub"
            (hubs if is_hub else leaves).append(i)
        cut = one_way_cut_check(doc.orientation, leaves, hubs, opts)
        if not cut.one_way:
            print("note: recipe cut is not one-way")
            return 1
        if cut.product_ok is not None:
            print(
                f"recipe cut law: diff {cut.diff_whole} = "
                f"{cut.diff_left} * {cut.diff_right}: ok"
            )
    if report.verdict == "accepted":
        return 0
    if report.verdict == "rejected":
        return 1
    return 3


def cmd_theorems(args) -> int:
    opts = _solver_options(args)
    reports = run_suite(
        claims=[args.claim] if args.claim else None,
        options=opts,
        n_range=_parse_range(args.n) if args.n else None,
        k_range=_parse_range(args.k) if args.k else None,
        toroidal_max=args.max,
        pair_count=args.pairs,
        seed=args.seed,
    )
    if args.json:
        payload = [
            {
                "claim": r.claim,
                "instance": r.instance,
                "predicted": r.predicted,
                "computed": r.computed,
                "verdict": r.verdict,
                "evidence": r.evidence,
                "millis": round(r.millis, 3),
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2))
    elif args.table:
        widths = [
            max([len("claim")] + [len(r.claim) for r in reports]),
            max([len("instance")] + [len(r.instance) for r in reports]),
            max([len("predicted")] + [len(r.predicted) for r in reports]),
            max([len("computed")] + [len(r.computed) for r in reports]),
        ]
        header = (
            f"{'claim':<{widths[0]}}  {'instance':<{widths[1]}}  "
            f"{'predicted':<{widths[2]}}  {'computed':<{widths[3]}}  verdict  millis"
        )
        print(header)
        print("-" * len(header))
        for r in reports:
            print(
                f"{r.claim:<{widths[0]}}  {r.instance:<{widths[1]}}  "
                f"{r.predicted:<{widths[2]}}  {r.computed:<{widths[3]}}  "
                f"{r.verdict:<7}  {r.millis:.1f}"
            )
    else:
        for r in reports:
            print(
                f"{r.claim} {r.instance}: predicted {r.predicted}, "
                f"computed {r.computed} -> {r.verdict}"
            )
    total = len(reports)
    fails = sum(1 for r in reports if r.verdict == "fail")
    inconclusive = sum(1 for r in reports if r.verdict == "inconclusive")
    print(f"{total} checks: {total - fails - inconclusive} pass, "
          f"{fails} fail, {inconclusive} inconclusive")
    if fails:
        return 1
    if inconclusive:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlab",
        description="Alon-Tarsi numbers: solvers, certificates and formula checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("family", choices=[*_FAMILIES, "tree"])
    p.add_argument("n", type=int, nargs="?", default=0)
    p.add_argument("--pruefer", help="comma-separated Pruefer sequence (tree)")
    p.add_argument("--edges", help="comma-separated u-v pairs (tree)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("product", help="cartesian product of two graph documents")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("corona", help="corona of two graph documents")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_corona)

    p = sub.add_parser("at", help="Alon-Tarsi number of a graph document")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--bipartite", action="store_true")
    mode.add_argument("--bounds", action="store_true")
    p.add_argument("--cert", help="write the certificate document here")
    _budget_flags(p)
    p.set_defaults(func=cmd_at)

    p = sub.add_parser("diff", help="even/odd Eulerian tally of an orientation")
    p.add_argument("graph", nargs="?")
    p.add_argument("arcs", nargs="?", help="file with one 'tail head' arc per line")
    p.add_argument("--cert", help="read the orientation from a certificate")
    _budget_flags(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("verify", help="re-check a certificate document")
    p.add_argument("cert")
    _budget_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("theorems", help="run the formula regression suite")
    p.add_argument("--claim", help="substring filter, e.g. lemma3.2 or theorem1")
    p.add_argument("--n", help="range like 1..6")
    p.add_argument("--k", help="range like 1..3")
    p.add_argument("--max", type=int, default=4, help="toroidal sweep bound")
    p.add_argument("--pairs", type=int, default=8, help="random corona pair count")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--table", action="store_true")
    p.add_argument("--json", action="store_true")
    _budget_flags(p)
    p.set_defaults(func=cmd_theorems)
    return parser


def _budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--enum-cap", type=int, dest="enum_cap")
    p.add_argument("--edge-cap", type=int, dest="edge_cap")
    p.add_argument("--poly-budget", type=int, dest="poly_budget")
    p.add_argument("--time-budget", type=float, dest="time_budget")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        try:
            sys.stdout.reconfigure(line_buffering=True)
        except ValueError:
            pass  # pytest capture streams reject reconfiguration
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
