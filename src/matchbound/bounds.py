"""Upper bounds for ell-matching counts, evaluated in log2 space (bits).

Factorials and falling factorials with integer arguments are computed
exactly and logged afterwards; log-gamma enters only for non-integer
arguments. Conventions: 0*log 0 = 0, and log2(x)/(x-1) = log2(e) at x = 1.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import PHI_READINGS, MarginalTable, matching_marginals, matching_profile
from .errors import CapExceeded
from .graphs import BipartiteGraph, Graph, as_bipartite

LOG2E = math.log2(math.e)
LN2 = math.log(2)


def log2_int(n: int) -> float:
    """log2 of a positive integer, safe for values beyond float range."""
    if n <= 0:
        raise ValueError("log2 of a nonpositive integer")
    shift = max(n.bit_length() - 64, 0)
    return math.log2(n >> shift) + shift


def binary_entropy(alpha) -> float:
    """-a*log2(a) - (1-a)*log2(1-a) with the endpoints set to 0."""
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"entropy argument outside [0,1]: {alpha}")
    if a == 0.0 or a == 1.0:
        return 0.0
    return -(a * math.log2(a) + (1.0 - a) * math.log2(1.0 - a))


def log_ratio(x) -> float:
    """log2(x)/(x-1) for x >= 1, continuously extended to log2(e) at x = 1."""
    xf = float(x)
    if xf < 1.0:
        raise ValueError(f"log_ratio needs x >= 1, got {x}")
    if xf == 1.0:
        return LOG2E
    return math.log1p(xf - 1.0) / LN2 / (xf - 1.0)


def _cover_rate_term(a: float) -> float:
    """a * log2(a/e), taken as 0 at a = 0."""
    if a == 0.0:
        return 0.0
    return a * (math.log2(a) - LOG2E)


def bregman_bound(degrees_x) -> float:
    """Perfect-matching bound sum_x log2(d_x!)/d_x, exact factorials."""
    degs = list(degrees_x)
    if any(d < 1 for d in degs):
        raise ValueError("all degrees must be >= 1")
    return sum(_psi_term(d, d, 1) for d in degs)


def _dregular_rate(n_vertices: int, d: int, ell: int) -> float:
    """a = 2*ell/N, once d and ell are checked, for the d-regular formulas."""
    if d < 1:
        raise ValueError("degree must be positive")
    if not 0 <= 2 * ell <= n_vertices:
        raise ValueError(f"need 0 <= 2*ell <= N, got ell={ell}, N={n_vertices}")
    return 2 * ell / n_vertices


def cgt_bound(n_vertices: int, d: int, ell: int) -> float:
    """(N/2) * [a*log2(d) + H(a)] with a = 2*ell/N, for d-regular graphs."""
    a = _dregular_rate(n_vertices, d, ell)
    return (n_vertices / 2) * (a * math.log2(d) + binary_entropy(a))


def umc_extremal_main_term(n_vertices: int, d: int, ell: int) -> float:
    """(N/2) * [a*log2(d) + 2H(a) + a*log2(a/e)]: the extremal count's
    leading behaviour, without the vanishing-in-d correction."""
    a = _dregular_rate(n_vertices, d, ell)
    return (n_vertices / 2) * (
        a * math.log2(d) + 2 * binary_entropy(a) + _cover_rate_term(a))


def thm_dregular_bound(n_vertices: int, d: int, ell: int) -> float:
    """Upper bound for ell-matchings of a d-regular graph on N vertices."""
    return umc_extremal_main_term(n_vertices, d, ell) + (n_vertices / 2) * log_ratio(d)


def elementary_symmetric(values, ell: int) -> int:
    """Exact elementary symmetric polynomial e_ell over an integer multiset."""
    vals = list(values)
    if not 0 <= ell <= len(vals):
        raise ValueError(f"need 0 <= ell <= {len(vals)}, got {ell}")
    return _elementary_upto(vals, ell)[ell]


def _elementary_upto(values, top: int) -> list[int]:
    """e_0..e_top of an integer multiset, from one O(len * top) pass."""
    e = [1] + [0] * top
    for k, d in enumerate(values):
        for j in range(min(k + 1, top), 0, -1):
            e[j] += d * e[j - 1]
    return e


def thm_bipartite_bound(b: BipartiteGraph, ell: int) -> float:
    """Degree-sequence upper bound for ell-matchings of a bipartite graph."""
    degs = b.degrees_x
    if min(degs) < 1:
        raise ValueError("isolated X-vertex")
    if not 1 <= ell <= min(b.size_x, b.size_y):
        raise ValueError(f"need 1 <= ell <= min(|X|,|Y|), got {ell}")
    return _bipartite_bits(b.size_y, min(degs), elementary_symmetric(degs, ell), ell)


def _bipartite_bits(size_y: int, min_degree: int, e_ell: int, ell: int) -> float:
    """The bipartite bound from e_ell of the X-degrees, which is positive."""
    a_y = ell / size_y
    return log2_int(e_ell) + size_y * (
        binary_entropy(a_y) + _cover_rate_term(a_y) + log_ratio(min_degree))


def thm_general_bound(g: Graph, ell: int) -> float:
    """Degree-sequence upper bound for ell-matchings of a general graph."""
    degs = g.degrees
    if min(degs) < 1:
        raise ValueError("isolated vertex")
    if not 0 <= 2 * ell <= g.n:
        raise ValueError(f"need 0 <= 2*ell <= N, got ell={ell}")
    return _general_bits(g.n, min(degs), elementary_symmetric(degs, 2 * ell), ell)


def _general_bits(n: int, min_degree: int, e_2ell: int, ell: int) -> float:
    """The general bound from e_{2 ell} of the degrees, which is positive."""
    a = 2 * ell / n
    return 0.5 * log2_int(e_2ell) + (n / 2) * (
        binary_entropy(a) + _cover_rate_term(a) + log_ratio(min_degree))


# ---------------------------------------------------------------------------
# generalized per-vertex terms
# ---------------------------------------------------------------------------

def _psi_loggamma(d: int, t: float) -> float:
    """The log-gamma form of psi; exposed separately so tests can pin the
    two evaluation routes against each other."""
    return (log2_int(math.factorial(d)) - math.lgamma(d - t + 1.0) / LN2) / t


def _psi_term(d: int, num: int, den: int) -> float:
    """psi(d, num/den): for integral t the log2 of the falling factorial
    d(d-1)...(d-t+1) over t, computed exactly; log-gamma otherwise."""
    k, r = divmod(num, den)
    return _psi_loggamma(d, num / den) if r else log2_int(math.perm(d, k)) / k


def psi(d: int, t) -> float:
    """Per-vertex bound term: [log2(d!) - log2(Gamma(d-t+1))] / t."""
    if d < 1 or int(d) != d:
        raise ValueError("d must be a positive integer")
    if not 0 < t <= d:
        raise ValueError(f"need 0 < t <= d, got t={t}, d={d}")
    return _psi_term(int(d), *Fraction(t).as_integer_ratio())


def genminc_bound(b: BipartiteGraph) -> float:
    """Conjectured bound sum_x psi(d_x, ell*d_x/M) for |X| = ell <= M = |Y|."""
    ell = b.size_x
    if b.size_y < ell:
        raise ValueError(f"need ell <= size_y, got {ell} > {b.size_y}")
    degs = b.degrees_x
    if min(degs) < 1:
        raise ValueError("isolated X-vertex")
    return sum(_psi_term(dx, ell * dx, b.size_y) for dx in degs)


def phi_wild(r: float, t: float, interp: str = "gamma") -> float:
    """Entropy-argument variant of psi, with 2^r in place of the degree.

    The printed formula has a bare log in the second term ("literal");
    the reading consistent with psi puts a Gamma inside it ("gamma").
    Callers must pick, and reports must label the choice.
    """
    if r < 0:
        raise ValueError("need r >= 0")
    cap = 2.0 ** r
    if not 0 < t <= cap:
        raise ValueError(f"need 0 < t <= 2^r, got t={t}, 2^r={cap}")
    if interp not in PHI_READINGS:
        raise ValueError(f"unknown interpretation {interp!r}")
    lead = math.lgamma(cap + 1.0) / LN2
    tail = (math.lgamma(cap - t + 1.0) / LN2 if interp == "gamma"
            else math.log2(cap - t + 1.0))
    return (lead - tail) / t


def wild_bound(table: MarginalTable, interp: str = "gamma") -> float:
    """Conjectured bound sum_x phi_wild(H(f(x)), (ell/M)*2^H(f(x))) under the
    uniform ell-matching distribution of the graph whose marginals are
    `table`, ell = |X|."""
    ratio = table.ell / len(table.hits[0])
    return sum((phi_wild(h, ratio * 2.0 ** h, interp) for h in table.h_edge), 0.0)


# ---------------------------------------------------------------------------
# consolidated per-(graph, ell) report
# ---------------------------------------------------------------------------

@dataclass
class BoundEntry:
    name: str
    applicable: bool
    value_bits: float | None = None
    slack_bits: float | None = None
    conjectural: bool = False


@dataclass
class BoundReport:
    graph_id: str
    ell: int
    exact_count: int | None
    exact_log2: float | None
    entries: list[BoundEntry] = field(default_factory=list)

    CSV_HEADER = ["graphId", "ell", "boundName", "valueBits", "exactBits",
                  "slackBits", "applicable"]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "graphId": self.graph_id,
            "ell": self.ell,
            "exactCount": None if self.exact_count is None else str(self.exact_count),
            "exactLog2Bits": self.exact_log2,
            "entries": [
                {
                    "name": e.name,
                    "applicable": e.applicable,
                    "valueBits": e.value_bits,
                    "slackBits": e.slack_bits,
                    "conjectural": e.conjectural,
                }
                for e in self.entries
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        fmt = lambda v: "" if v is None else format(v, ".12g")
        rows = []
        for e in self.entries:
            rows.append([
                self.graph_id, str(self.ell), e.name, fmt(e.value_bits),
                fmt(self.exact_log2), fmt(e.slack_bits), str(e.applicable).lower(),
            ])
        return rows


def reports_to_csv(reports) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(BoundReport.CSV_HEADER)
    for rep in reports:
        writer.writerows(rep.csv_rows())
    return out.getvalue()


def bound_report(graph_or_bip, ells, graph_id: str = "",
                 phi_interp: str = "gamma") -> list[BoundReport]:
    """Evaluate every applicable bound against the exact count, one report
    per ell in ells, from a single exact profile.

    Inapplicable bounds are flagged rather than raised. A plain Graph that
    happens to be 2-colorable gets the bipartite bounds via the canonical
    coloring (lowest vertex of each component on the X side).
    """
    if phi_interp not in PHI_READINGS:
        raise ValueError(f"unknown interpretation {phi_interp!r}")
    if isinstance(graph_or_bip, BipartiteGraph):
        bip = graph_or_bip
        g = bip.to_graph()
    else:
        g = graph_or_bip
        bip = as_bipartite(g)
    ells = list(ells)
    for ell in ells:
        if not 0 <= ell <= g.n // 2:
            raise ValueError(f"ell must lie in 0..{g.n // 2}, got {ell}")
    try:
        prof = matching_profile(g)
    except CapExceeded:
        prof = None

    # the per-graph facts, once: every row reads its e_k from one table
    degs = g.degrees
    min_deg = min(degs)
    regular = min_deg >= 1 and min_deg == max(degs)
    degs_x = [0] if bip is None else bip.degrees_x
    dx_ok = min(degs_x) >= 1
    top = max(ells, default=0)
    e_g, e_x = _elementary_upto(degs, 2 * top), _elementary_upto(degs_x, top)
    # the conjectured bounds need the ell-sized part on the X side, the
    # smaller one: transpose when X is the larger part
    gen = bip
    if bip is not None and bip.size_y < bip.size_x:
        gen = BipartiteGraph(bip.size_y, bip.size_x, [(y, x) for x, y in bip.edges])
    if gen is not None and min(gen.degrees_x) < 1:
        gen = None

    reports = []
    for ell in ells:
        exact_count = None if prof is None else prof[ell]
        exact_log2 = log2_int(exact_count) if exact_count else None
        report = BoundReport(graph_id=graph_id, ell=ell,
                             exact_count=exact_count, exact_log2=exact_log2)
        reports.append(report)

        def add(name: str, applicable: bool, compute, conjectural: bool = False):
            entry = BoundEntry(name=name, applicable=applicable, conjectural=conjectural)
            report.entries.append(entry)
            if applicable:
                entry.value_bits = compute()
                if exact_log2 is not None:
                    entry.slack_bits = entry.value_bits - exact_log2

        gen_ok = gen is not None and gen.size_x == ell
        add("cgt", regular, lambda: cgt_bound(g.n, min_deg, ell))
        add("dregular", regular, lambda: thm_dregular_bound(g.n, min_deg, ell))
        add("general", min_deg >= 1, lambda: _general_bits(g.n, min_deg, e_g[2 * ell], ell))
        add("bregman", dx_ok and bip.size_x == bip.size_y == ell,
            lambda: bregman_bound(degs_x))
        add("bipartite", dx_ok and 1 <= ell <= min(bip.size_x, bip.size_y),
            lambda: _bipartite_bits(bip.size_y, min(degs_x), e_x[ell], ell))
        add("genminc", gen_ok, lambda: genminc_bound(gen), conjectural=True)
        with suppress(CapExceeded):  # a refused column DP leaves the row without a value
            add(f"wild-{phi_interp}", gen_ok and bool(exact_count),
                lambda: wild_bound(matching_marginals(gen), phi_interp), conjectural=True)
    return reports
