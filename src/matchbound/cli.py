"""Command-line surface.

Exit codes: 0 success; 1 usage or parse error; 2 infeasible (a size, state,
enumeration, or retry cap); 3 a conjecture violation was found under --strict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from .errors import CapExceeded, ParseError
from .graphs import (BipartiteGraph, Graph, bipartite_double_cover, emit_bipartite,
                     parse_bipartite, parse_edge_list, parse_graph6)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3


# this module: the commands read the package's names as its attributes, so
# a name set here (a wrapper) is the one that runs
_here = sys.modules[__name__]


def __getattr__(name):
    """A public name of the package, read here before it is bound: resolved
    by the package's name table and bound here. It asks the package's
    __getattr__, not the package, so that an attribute an import probes
    here, such as __path__, is not taken from the package."""
    try:
        value = sys.modules[__package__].__getattr__(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the default --format by the --graph path's ending; any other path, "-" too, is "edges"
SUFFIX_FORMATS = ((".g6", "g6"), (".bip", "bipartite"), (".bg", "bipartite"))


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
    except OSError as exc:
        raise _UsageError(f"cannot read --graph {path}: {exc.strerror or exc}") from None
    if fmt is None:
        fmt = next((f for suffix, f in SUFFIX_FORMATS if path.endswith(suffix)), "edges")
    # looked up at each call, so that a parser replaced on the module is used
    parse = {"g6": parse_graph6, "bipartite": parse_bipartite, "edges": parse_edge_list}
    g = parse[fmt](text)
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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _float_text(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# the text of each scalar, looked up by its exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json_text(node, pad: str = "\n") -> str:
    """json.dumps(node, indent=2) in one walk, each scalar written inline
    (given an indent, the stdlib encodes in Python). pad: a newline and the
    indent of node. Tuples are lists, keys str; other types raise TypeError."""
    scalar = _SCALARS.get
    inner = pad + "  "
    kind = type(node)
    if kind is dict:
        parts = [f"{encode_basestring_ascii(k)}: "
                 f"{w(v) if (w := scalar(type(v))) else _json_text(v, inner)}"
                 for k, v in node.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        parts = [w(v) if (w := scalar(type(v))) else _json_text(v, inner) for v in node]
        brackets = "[]"
    elif (w := scalar(kind)) is not None:
        return w(node)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not parts:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}{pad}{brackets[1]}"


def _write_json(doc: dict, out: str | None) -> None:
    _write(_json_text(doc) + "\n", out)


def _ell_list(spec: str, max_ell: int | None = None) -> list[int]:
    """Comma-separated integers, or "all" as 0..max_ell when max_ell is given;
    the commands that take the list check its range."""
    if spec == "all" and max_ell is not None:
        return list(range(max_ell + 1))
    try:
        return [int(part) for part in spec.split(",")]
    except ValueError:
        raise _UsageError(f"bad --ell value {spec!r}") from None


def _cmd_count(args) -> int:
    g, _name = _read_graph(args, Graph)
    prof = _here.matching_profile(g)
    if args.json:
        _write(_here.profile_to_json(prof) + "\n", args.out)
    else:
        lines = [f"{ell} {cnt}" for ell, cnt in enumerate(prof)]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g, name = _read_graph(args, None)
    n = g.size_x + g.size_y if isinstance(g, BipartiteGraph) else g.n
    ells = _ell_list(args.ell, n // 2)
    reports = _here.bound_report(g, ells, graph_id=name, phi_interp=args.phi_interp)
    if args.json:
        _write_json({"schema": 1, "reports": [r.to_json_dict() for r in reports]},
                    args.out)
    else:
        _write(_here.reports_to_csv(reports), args.out)
    return EXIT_OK


def _cmd_marginals(args) -> int:
    g, _name = _read_graph(args, BipartiteGraph)
    _write_json(_here.matching_marginals(g).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_double_cover(args) -> int:
    g, _name = _read_graph(args, Graph)
    _write(emit_bipartite(bipartite_double_cover(g)), args.out)
    return EXIT_OK


def _cmd_fibers(args) -> int:
    g, name = _read_graph(args, Graph)
    _write_json(_here.verify_fibers(g, args.ell, graph_id=name).to_json_dict(), args.out)
    return EXIT_OK


def _cmd_prooflab(args) -> int:
    g, _name = _read_graph(args, BipartiteGraph)
    enum = _here.Enumeration(g)
    chain = _here.inequality_chain_audit(enum)
    zx = [_here.zx_distribution_audit(enum, x).to_json_dict() for x in range(g.size_x)]
    rk = [_here.rk_formula_audit(enum, x, y).to_json_dict()
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
    cfg = _here.CampaignConfig(
        conjecture=args.conjecture, samples=args.samples, seed=args.seed,
        n_vertices=args.N, d=args.d, ell=ell, size_y=args.M,
        edge_prob=args.edge_prob, family=args.family, ell_values=ell_values,
        phi_interp=args.phi_interp)
    report = _here.run_campaign(cfg)
    _write_json(report.to_json_dict(), args.out)
    if report.violations and args.strict:
        return EXIT_VIOLATION
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on the first call and shared by every call after
    it: building costs far more than parsing, and parse_args leaves the
    parser unchanged. Each subcommand names the function that runs it; that
    function loads a module of the package when it first reads one of its
    names."""
    from .counting import PHI_READINGS

    parser = _Parser(prog="matchbound")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, graph=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if graph:
            p.add_argument("--graph", required=True, help="input file, or - for stdin")
            p.add_argument("--format", choices=["g6", "edges", "bipartite"],
                           default=None, help="default: inferred from extension")
            p.add_argument("--out", default=None)
        return p

    p = command("count", "exact matching profile", _cmd_count)
    p.add_argument("--json", action="store_true")

    p = command("bounds", "bound table for one or all ell", _cmd_bounds)
    p.add_argument("--ell", default="all")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--json", action="store_true")
    layout.add_argument("--csv", action="store_true")
    p.add_argument("--phi-interp", choices=PHI_READINGS, default="gamma")

    p = command("marginals", "exact matching marginals (bipartite)", _cmd_marginals)
    p.add_argument("--ell", required=True, type=int)

    command("double-cover", "emit the bipartite double cover", _cmd_double_cover)

    p = command("fibers", "fiber-size audit for one ell", _cmd_fibers)
    p.add_argument("--ell", required=True, type=int)

    p = command("prooflab", "entropy-argument audits (bipartite)", _cmd_prooflab)
    p.add_argument("--ell", required=True, type=int)

    p = command("campaign", "seeded conjecture campaign", _cmd_campaign, graph=False)
    p.add_argument("--conjecture", choices=["umc", "genminc", "wild"], required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--ell", default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--family", choices=["random", "sharp"], default="random")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi-interp", choices=PHI_READINGS, default=None)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", default=None)

    return parser


def cli_dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
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
