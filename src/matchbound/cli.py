"""Command-line surface.

Exit codes: 0 success; 1 usage or parse error; 2 infeasible (a size, state,
enumeration, or retry cap); 3 a conjecture violation was found under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bounds import bound_report, reports_to_csv
from .campaigns import CampaignConfig, run_campaign
from .correspondence import verify_fibers
from .counting import matching_marginals, matching_profile, profile_to_json
from .errors import CapExceeded, ParseError
from .graphs import (BipartiteGraph, Graph, bipartite_double_cover, emit_bipartite,
                     parse_bipartite, parse_edge_list, parse_graph6)
from .prooflab import (Enumeration, inequality_chain_audit, rk_formula_audit,
                       zx_distribution_audit)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_graph(args, want):
    """The --graph input in --format (default: from the extension), and its
    name. want=Graph flattens a bipartite input, want=None keeps the input as
    parsed, and want=BipartiteGraph refuses any input but a bipartite one
    whose |X| equals --ell."""
    path, fmt = args.graph, args.format
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
            # in the C locale stdin reads undecodable bytes as lone surrogates
            text.encode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeError:
        raise ParseError(f"{name} is not UTF-8 text") from None
    if fmt is None:
        if path.endswith(".g6"):
            fmt = "g6"
        elif path.endswith((".bip", ".bg")):
            fmt = "bipartite"
        else:
            fmt = "edges"
    if fmt == "g6":
        g = parse_graph6(text)
    elif fmt == "bipartite":
        g = parse_bipartite(text)
    else:
        g = parse_edge_list(text)
    if want is Graph and isinstance(g, BipartiteGraph):
        g = g.to_graph()
    elif want is BipartiteGraph:
        if not isinstance(g, BipartiteGraph):
            verb = "need" if args.command == "marginals" else "needs"
            raise _UsageError(f"{args.command} {verb} a bipartite input "
                              "(--format bipartite)")
        if g.size_x != args.ell:
            raise _UsageError(f"--ell must equal |X| = {g.size_x}, got {args.ell}")
    return g, name


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _ell_list(spec: str, max_ell: int | None = None) -> list[int]:
    """Comma-separated integers, or "all" as 0..max_ell when max_ell is given;
    the commands that take the list check its range."""
    if spec == "all" and max_ell is not None:
        return list(range(max_ell + 1))
    try:
        return [int(part) for part in spec.split(",")]
    except ValueError:
        raise _UsageError(f"bad --ell value {spec!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="matchbound")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flags(p):
        p.add_argument("--graph", required=True, help="input file, or - for stdin")
        p.add_argument("--format", choices=["g6", "edges", "bipartite"],
                       default=None, help="default: inferred from extension")
        p.add_argument("--out", default=None)

    p = sub.add_parser("count", help="exact matching profile")
    graph_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="bound table for one or all ell")
    graph_flags(p)
    p.add_argument("--ell", default="all")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--json", action="store_true")
    layout.add_argument("--csv", action="store_true")
    p.add_argument("--phi-interp", choices=["gamma", "literal"], default="gamma")

    p = sub.add_parser("marginals", help="exact matching marginals (bipartite)")
    graph_flags(p)
    p.add_argument("--ell", required=True, type=int)

    p = sub.add_parser("double-cover", help="emit the bipartite double cover")
    graph_flags(p)

    p = sub.add_parser("fibers", help="fiber-size audit for one ell")
    graph_flags(p)
    p.add_argument("--ell", required=True, type=int)

    p = sub.add_parser("prooflab", help="entropy-argument audits (bipartite)")
    graph_flags(p)
    p.add_argument("--ell", required=True, type=int)

    p = sub.add_parser("campaign", help="seeded conjecture campaign")
    p.add_argument("--conjecture", choices=["umc", "genminc", "wild"], required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--ell", default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--family", choices=["random", "sharp"], default="random")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi-interp", choices=["gamma", "literal"], default="gamma")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first dispatch and reused after it: building
    costs far more than parsing, and parse_args leaves the parser unchanged."""
    return build_parser()


def _cmd_count(args) -> int:
    g, _name = _read_graph(args, Graph)
    prof = matching_profile(g)
    if args.json:
        _write(profile_to_json(prof) + "\n", args.out)
    else:
        lines = [f"{ell} {cnt}" for ell, cnt in enumerate(prof)]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g, name = _read_graph(args, None)
    n = g.size_x + g.size_y if isinstance(g, BipartiteGraph) else g.n
    ells = _ell_list(args.ell, n // 2)
    reports = bound_report(g, ells, graph_id=name, phi_interp=args.phi_interp)
    if args.json:
        _write_json({"schema": 1, "reports": [r.to_json_dict() for r in reports]},
                    args.out)
    else:
        _write(reports_to_csv(reports), args.out)
    return EXIT_OK


def _cmd_marginals(args) -> int:
    g, _name = _read_graph(args, BipartiteGraph)
    _write_json(matching_marginals(g).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_double_cover(args) -> int:
    g, _name = _read_graph(args, Graph)
    _write(emit_bipartite(bipartite_double_cover(g)), args.out)
    return EXIT_OK


def _cmd_fibers(args) -> int:
    g, name = _read_graph(args, Graph)
    _write_json(verify_fibers(g, args.ell, graph_id=name).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_prooflab(args) -> int:
    g, _name = _read_graph(args, BipartiteGraph)
    enum = Enumeration(g)
    chain = inequality_chain_audit(enum)
    zx = [zx_distribution_audit(enum, x).to_json_dict() for x in range(g.size_x)]
    rk = [rk_formula_audit(enum, x, y).to_json_dict()
          for x, y in g.edges if enum.p[x][y]]
    _write_json({"schema": 1, "chain": chain.to_json_dict(),
                 "sizeDistributions": zx, "availabilityFormulas": rk}, args.out)
    return EXIT_OK


def _cmd_campaign(args) -> int:
    ell_values = None
    ell = None
    if args.conjecture == "umc":
        if args.ell not in (None, "all"):
            ell_values = _ell_list(args.ell)
    elif args.ell is not None:
        values = _ell_list(args.ell)
        if len(values) != 1:
            raise _UsageError(f"bad --ell value {args.ell!r}: {args.conjecture} "
                              "takes a single integer")
        ell = values[0]
    cfg = CampaignConfig(
        conjecture=args.conjecture, samples=args.samples, seed=args.seed,
        n_vertices=args.N, d=args.d, ell=ell, size_y=args.M,
        edge_prob=args.edge_prob, family=args.family, ell_values=ell_values,
        phi_interp=args.phi_interp)
    report = run_campaign(cfg)
    _write_json(report.to_json_dict(), args.out)
    if report.violations and args.strict:
        return EXIT_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "bounds": _cmd_bounds,
    "marginals": _cmd_marginals,
    "double-cover": _cmd_double_cover,
    "fibers": _cmd_fibers,
    "prooflab": _cmd_prooflab,
    "campaign": _cmd_campaign,
}


def cli_dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (_UsageError, OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
