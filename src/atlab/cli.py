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

from .atsolver import at_exact
from .construct import verify_certificate
from .documents import (
    parse_certificate,
    parse_graph,
    parse_pairs,
    serialize_certificate,
    serialize_graph,
)
from .errors import CapacityError
from .eulerian import eulerian_tally_enumerate, orientation_from_arcs
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


# budget flag -> the SolverOptions field it sets (also its dest), its type
# and the commands that read it
_BUDGET_FLAGS = {
    "--edge-cap": ("search_edge_cap", int, ("at", "theorems")),
    "--time-budget": ("time_budget", float, ("at", "theorems")),
}


def _solver_options(args) -> SolverOptions:
    given = {f: getattr(args, f, None) for f, _, _ in _BUDGET_FLAGS.values()}
    return SolverOptions().with_(**{f: v for f, v in given.items() if v is not None})


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


def _parse_range(text: str, flag: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise ValueError(f"bad range {text!r} for {flag}, expected n or lo..hi") from None
    if not values:
        raise ValueError(f"empty range {text!r} for {flag}")
    return values


# `gen` families built from a size alone
_FAMILIES = {"hypercube": hypercube, "cycle": cycle, "path": path, "star": star,
            "complete": complete}


def cmd_gen(args) -> int:
    family = args.family
    if family in _FAMILIES:
        g = _FAMILIES[family](args.n)
        prov = f"{family} n={args.n}"
    else:  # "tree", the one family argparse allows beside _FAMILIES
        if args.pruefer is not None:
            try:
                seq = [int(x) for x in args.pruefer.split(",")] if args.pruefer else []
            except ValueError:
                raise ValueError(f"bad --pruefer {args.pruefer!r}, expected integers") from None
            g = tree_from_pruefer(seq)
            prov = f"tree pruefer={args.pruefer}"
        elif args.edges is not None:
            pairs = []
            for chunk in args.edges.split(","):
                try:
                    u, v = map(int, chunk.split("-"))
                except ValueError:
                    raise ValueError(f"bad --edges pair {chunk!r}, expected u-v") from None
                pairs.append((u, v))
            n = max(max(u, v) for u, v in pairs) + 1
            g = tree_from_edges(n, pairs)
            prov = f"tree edges={args.edges}"
        else:
            raise ValueError("gen tree needs --pruefer or --edges")
    _emit_graph(g, prov, args.output)
    return 0


# composite command -> the operation it applies and its help line
_COMPOSITES = {
    "product": (cartesian_product, "cartesian product of two graph documents"),
    "corona": (corona, "corona of two graph documents"),
}


def cmd_composite(args) -> int:
    g1, p1 = _load_graph(args.g1)
    g2, p2 = _load_graph(args.g2)
    g = _COMPOSITES[args.command][0](g1, g2)
    _emit_graph(g, f"{args.command} ({p1 or '?'}) ({p2 or '?'})", args.output)
    return 0


def cmd_at(args) -> int:
    g, prov = _load_graph(args.graph)
    opts = _solver_options(args)
    result = at_exact(g, opts)
    if result.is_exact:
        print(f"AT = {result.value}")
    else:
        print(f"AT in [{result.lo}, {result.hi}]")
    print(f"lower-bound reason: {result.lower_bound_reason}")
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
    if args.cert:
        if args.graph or args.arcs:
            raise ValueError("diff takes --cert or a graph document plus an arc file, not both")
        with open(args.cert) as fh:
            doc = parse_certificate(fh.read())
        orientation = doc.orientation
    else:
        if not args.graph or not args.arcs:
            raise ValueError("diff needs --cert, or a graph document plus an arc file")
        g, _ = _load_graph(args.graph)
        with open(args.arcs) as fh:
            arcs = parse_pairs(fh, "arc")
        orientation = orientation_from_arcs(g, arcs)
    tally = eulerian_tally_enumerate(orientation)
    print(f"even {tally.even_count}")
    print(f"odd {tally.odd_count}")
    print(f"diff {tally.diff}")
    return 0


def cmd_verify(args) -> int:
    with open(args.cert) as fh:
        doc = parse_certificate(fh.read())
    report = verify_certificate(doc.as_certificate())
    print(f"verdict: {report.verdict}")
    print(f"max outdegree {report.max_outdegree} (level {report.level})")
    if report.diff_method is not None:
        mag = "nonzero" if report.diff_magnitude is None else report.diff_magnitude
        print(f"diff check: {report.diff_method} -> {mag}")
    for msg in report.messages:
        print(f"note: {msg}")
    return {"accepted": 0, "rejected": 1, "outdegree-only": 3}[report.verdict]


def cmd_theorems(args) -> int:
    # here, so the other commands never load the claim suite
    from .theorems import run_suite

    opts = _solver_options(args)
    if args.pairs < 0:
        raise ValueError(f"--pairs must be >= 0, got {args.pairs}")
    reports = run_suite(
        claims=[args.claim] if args.claim else None,
        options=opts,
        n_range=_parse_range(args.n, "--n") if args.n else None,
        k_range=_parse_range(args.k, "--k") if args.k else None,
        toroidal_max=args.max,
        pair_count=args.pairs,
        seed=args.seed,
    )
    if not reports:
        given = [f"--{name} {getattr(args, name)}" for name in ("claim", "n", "k")
                 if getattr(args, name)]
        raise ValueError(f"no check selected by {' '.join(given)} --max {args.max}")
    if args.json:
        payload = [
            {"claim": r.claim, "instance": r.instance, "predicted": r.predicted,
             "computed": r.computed, "verdict": r.verdict, "evidence": r.evidence,
             "millis": round(r.millis, 3)}
            for r in reports
        ]
        print(json.dumps(payload, indent=2))
    elif args.table:
        columns = ("claim", "instance", "predicted", "computed")
        widths = {c: max([len(c)] + [len(getattr(r, c)) for r in reports]) for c in columns}
        header = "  ".join(c.ljust(widths[c]) for c in columns) + "  verdict  millis"
        print(header)
        print("-" * len(header))
        for r in reports:
            cells = "  ".join(getattr(r, c).ljust(widths[c]) for c in columns)
            print(f"{cells}  {r.verdict:<7}  {r.millis:.1f}")
    else:
        for r in reports:
            print(
                f"{r.claim} {r.instance}: predicted {r.predicted}, "
                f"computed {r.computed} -> {r.verdict}"
            )
    total = len(reports)
    fails = sum(1 for r in reports if r.verdict == "fail")
    inconclusive = sum(1 for r in reports if r.verdict == "inconclusive")
    # stdout in --json mode holds the JSON array alone
    print(f"{total} checks: {total - fails - inconclusive} pass, "
          f"{fails} fail, {inconclusive} inconclusive",
          file=sys.stderr if args.json else sys.stdout)
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

    for name, (_, help_line) in _COMPOSITES.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("g1")
        p.add_argument("g2")
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_composite)

    p = sub.add_parser("at", help="Alon-Tarsi number of a graph document")
    p.add_argument("graph")
    p.add_argument("--cert", help="write the certificate document here")
    p.set_defaults(func=cmd_at)

    p = sub.add_parser("diff", help="even/odd Eulerian tally of an orientation")
    p.add_argument("graph", nargs="?")
    p.add_argument("arcs", nargs="?", help="file with one 'tail head' arc per line")
    p.add_argument("--cert", help="read the orientation from a certificate")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("verify", help="re-check a certificate document")
    p.add_argument("cert")
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
    p.set_defaults(func=cmd_theorems)

    for flag, (field, kind, commands) in _BUDGET_FLAGS.items():
        for command in commands:
            sub.choices[command].add_argument(flag, type=kind, dest=field)
    return parser


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
