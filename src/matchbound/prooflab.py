"""Exact numerical verification of the entropy argument on tiny bipartite
instances.

The probability space is a uniform X-saturating matching together with an
independent uniform order in which the X-vertices are reached. Every law is
enumerated exactly: the tables of an X-vertex depend on the order only
through the set of X-vertices reached before it, so each vertex walks its
predecessor sets with integer weights, and only entropies and logs are
floating point. Every inequality gets a uniform 1e-9 slack.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .bounds import LOG2E, binary_entropy, log2_int, thm_bipartite_bound
from .counting import enumerate_matchings, frac_str, matching_marginals
from .errors import CapExceeded
from .graphs import BipartiteGraph

TOL = 1e-9
MAX_ELL = 4
MAX_M = 5


def _f(t: float) -> float:
    """(t/(1-t)) * log2(1/t) on 0 < t < 1, extended to log2(e) at t = 1."""
    if t == 1.0:
        return LOG2E
    return -(t / (1.0 - t)) * math.log2(t)


class Enumeration:
    """All X-saturating matchings of b as partner tuples, plus the exact
    joint tables over a uniform matching and an independent uniform order in
    which the X-vertices are reached, with ell = |X|. Built once and shared
    by every audit of b.

    Every table for x depends on the order only through the set of
    X-vertices reached before x, and a uniform order puts a given k-set
    there in k!(ell-1-k)! of its ell! cases. So each x walks its predecessor
    sets, not its orders, adds integer multiplicities, and divides by
    count * ell! once per table entry."""

    def __init__(self, b: BipartiteGraph):
        ell = b.size_x
        if ell > MAX_ELL or b.size_y > MAX_M:
            raise CapExceeded(
                f"enumeration audits are capped at ell <= {MAX_ELL}, M <= {MAX_M}, "
                f"got ell = {ell}, M = {b.size_y}; the caps are the fixed constants "
                "prooflab.MAX_ELL and prooflab.MAX_M, with no knob")
        # refuses ell > size_y and a graph with no X-saturating matching
        self.marginals = matching_marginals(b)
        self.b = b
        self.ell = ell
        self.m = b.size_y
        # with |X| = ell every ell-matching saturates X; edges are sorted by x,
        # so each matching reads as its partner tuple, in lexicographic order
        self.fs: list[tuple[int, ...]] = list(
            enumerate_matchings(b.to_graph(), ell, [y for _x, y in b.edges]))
        self.count = len(self.fs)
        self.p, self.mu, self.nu = self.marginals.p, self.marginals.mu, self.marginals.nu
        self._by_x: dict[int, tuple] = {}

    def _tables(self, x: int) -> tuple:
        """(size tables, H given available set, H given history) for x,
        computed once per x."""
        if not 0 <= x < self.ell:
            raise ValueError(f"x out of range: {x}")
        if x not in self._by_x:
            self._by_x[x] = self._walk(x)
        return self._by_x[x]

    def size_tables(self, x: int):
        """Exact tables over the available-set size k:
        unconditional q[k], conditional-on-partner q_cond[y][k], and the
        joint r[(k, y)] = Pr(size k and y still available). Computed once
        per x; callers must not modify them."""
        return self._tables(x)[0]

    def conditional_entropy_given_available(self, x: int) -> float:
        """H(x's partner | the Y-vertices still available when x is reached)."""
        return self._tables(x)[1]

    def conditional_entropy_given_history(self, x: int) -> float:
        """H(x's partner | the X-vertices reached before x and their partners)."""
        return self._tables(x)[2]

    def _walk(self, x: int) -> tuple:
        # predecessor sets in order of first appearance among the orders, each
        # counted with the orders that give it; with the matchings in
        # enumeration order within each set, every dict below first sees its
        # keys in the order of the (order, matching) walk, so every float sum
        # adds the same terms in the same order
        sets = Counter(tuple(sorted(order[:order.index(x)]))
                       for order in permutations(range(self.ell)))
        q, r = defaultdict(int), defaultdict(int)
        q_cond = defaultdict(lambda: defaultdict(int))
        given_available, given_history = defaultdict(int), defaultdict(int)
        for before, mult in sets.items():
            k = self.m - len(before)
            q[k] += mult * self.count
            for f in self.fs:
                taken = tuple(f[w] for w in before)
                q_cond[f[x]][k] += mult
                for y in range(self.m):
                    if y not in taken:
                        r[(k, y)] += mult
                given_available[(f[x], frozenset(taken))] += mult
                given_history[(f[x], (before, taken))] += mult
        orders = math.factorial(self.ell)
        denom = self.count * orders
        tables = (
            {k: Fraction(c, denom) for k, c in q.items()},
            {y: {k: Fraction(c, orders * self.marginals.hits[x][y])
                 for k, c in table.items()}
             for y, table in q_cond.items()},
            {key: Fraction(c, denom) for key, c in r.items()},
        )
        return (tables, _conditional_entropy(given_available, denom),
                _conditional_entropy(given_history, denom))


def _conditional_entropy(joint: dict, denom: int) -> float:
    """H(partner | condition) in bits from integer weights over denom, keyed
    by (partner, condition). The int divisions round exactly as the floats
    of the reduced fractions would."""
    marg: dict = {}
    for (_partner, cond), c in joint.items():
        marg[cond] = marg.get(cond, 0) + c
    h = 0.0
    for (_partner, cond), c in joint.items():
        h += c / denom * math.log2(marg[cond] / c)
    return h


@dataclass
class DistributionAudit:
    """Exact distribution tables for one X-vertex, with per-formula flags."""

    x: int
    q_table: dict = field(default_factory=dict)
    r_table: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "x": self.x,
            "qTable": {str(k): frac_str(v) for k, v in sorted(self.q_table.items())},
            "rTable": {f"{k},{y}": frac_str(v)
                       for (k, y), v in sorted(self.r_table.items())},
            "checks": dict(self.checks),
            "passed": self.passed,
        }


def zx_distribution_audit(enum: Enumeration, x: int) -> DistributionAudit:
    """Distribution of the number of still-available Y-vertices when x is
    reached: zero below M-ell, exactly 1/ell on M-ell+1..M, and independent
    of x's partner."""
    q, q_cond, _r = enum.size_tables(x)
    m, ell = enum.m, enum.ell
    lo = m - ell + 1
    audit = DistributionAudit(x=x, q_table=q)
    audit.checks["zero-below-range"] = all(k >= lo for k, v in q.items() if v)
    audit.checks["uniform-on-range"] = all(
        q.get(k, Fraction(0)) == Fraction(1, ell) for k in range(lo, m + 1))
    audit.checks["independent-of-partner"] = all(
        table.get(k, Fraction(0)) == q.get(k, Fraction(0))
        for table in q_cond.values() for k in range(lo, m + 1))
    return audit


def rk_formula_audit(enum: Enumeration, x: int, y: int) -> DistributionAudit:
    """Closed form for r_k(y) = Pr(k available and y among them):
    q_k * [(mu_y - p(x,y)) * (k-(M-ell)-1)/(ell-1) + (nu_y + p(x,y))]."""
    q, _q_cond, r_full = enum.size_tables(x)
    if not 0 <= y < enum.m or not enum.p[x][y]:
        raise ValueError(f"vertex {y} is not a possible partner of {x}")
    m, ell = enum.m, enum.ell
    p_xy = enum.p[x][y]
    mu_y = enum.mu[y]
    nu_y = enum.nu[y]
    audit = DistributionAudit(x=x, q_table=q,
                              r_table={(k, yy): v for (k, yy), v in r_full.items()
                                       if yy == y})
    ok = True
    for k in range(m - ell + 1, m + 1):
        if ell == 1:
            bracket = nu_y + p_xy
        else:
            bracket = (mu_y - p_xy) * Fraction(k - (m - ell) - 1, ell - 1) + (nu_y + p_xy)
        expected = q.get(k, Fraction(0)) * bracket
        if r_full.get((k, y), Fraction(0)) != expected:
            ok = False
    audit.checks["matches-closed-form"] = ok
    return audit


@dataclass
class ChainAudit:
    """The monotone checkpoint chain from the exact entropy up to the final
    degree bound, plus the chain-rule identity gap."""

    checkpoints: list = field(default_factory=list)
    chain_rule_gap: float = 0.0

    @property
    def passed(self) -> bool:
        values = [v for _label, v in self.checkpoints]
        monotone = all(values[i] <= values[i + 1] + TOL for i in range(len(values) - 1))
        return monotone and self.chain_rule_gap <= TOL

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "checkpoints": [{"label": label, "valueBits": v}
                            for label, v in self.checkpoints],
            "chainRuleGap": self.chain_rule_gap,
            "passed": self.passed,
        }


def _table_term(q_cond_y: dict, r_full: dict, y: int) -> float:
    """The per-size table value F(x, y) = sum_k q(k | y) * log2(r_k(y) / q(k | y))."""
    f_xy = 0.0
    for k, q_val in q_cond_y.items():
        if q_val:
            f_xy += float(q_val) * math.log2(r_full[(k, y)] / q_val)
    return f_xy


def inequality_chain_audit(enum: Enumeration) -> ChainAudit:
    """Evaluate the six checkpoints of the entropy argument in bits.

    c0 exact entropy; c1 conditions each partner on the available set; c2
    substitutes the per-size tables; c3 the closed-form concave bound; c4
    the degree split; c5 the final degree-sequence bound.
    """
    b, ell, m = enum.b, enum.ell, enum.m
    c0 = log2_int(enum.count)

    c1 = 0.0
    c2 = 0.0
    c3 = 0.0
    chain_sum = 0.0
    split_sum = 0.0
    degs = b.degrees_x
    for x in range(ell):
        c1 += enum.conditional_entropy_given_available(x)
        chain_sum += enum.conditional_entropy_given_history(x)
        h_x = enum.marginals.h_edge[x]
        _q, q_cond, r_full = enum.size_tables(x)
        table_slack = 0.0
        closed_slack = 0.0
        for y in range(m):
            p_xy = enum.p[x][y]
            if not p_xy:
                continue
            table_slack += float(p_xy) * _table_term(q_cond[y], r_full, y)
            closed_slack += float(p_xy) * (_f(float(enum.nu[y] + p_xy)) - LOG2E)
            split_sum += float(p_xy) * (_f(float(p_xy))
                                        - math.log2(degs[x] * float(p_xy)))
        c2 += h_x + table_slack
        c3 += h_x + closed_slack

    alpha_y = ell / m
    alpha_term = 0.0 if alpha_y == 0 else alpha_y * math.log2(alpha_y / math.e)
    c4 = sum(math.log2(d) for d in degs) + split_sum + m * (
        binary_entropy(alpha_y) + alpha_term)
    c5 = thm_bipartite_bound(b, ell)

    audit = ChainAudit(chain_rule_gap=abs(c0 - chain_sum))
    audit.checkpoints = [
        ("exact-entropy", c0),
        ("given-available-set", c1),
        ("per-size-tables", c2),
        ("concave-closed-form", c3),
        ("degree-split", c4),
        ("degree-bound", c5),
    ]
    return audit
