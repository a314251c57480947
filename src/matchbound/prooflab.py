"""Exact numerical verification of the entropy argument on tiny bipartite
instances.

Everything probabilistic is enumerated over the uniform (matching,
insertion-order) pair with exact rationals; only entropies and logs are
floating point, and every inequality gets a uniform 1e-9 slack.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .bounds import LOG2E, binary_entropy, log2_int, log_ratio, thm_bipartite_bound
from .counting import entropy_bits, enumerate_matchings, saturating_count
from .errors import CapExceeded
from .graphs import BipartiteGraph

TOL = 1e-9
MAX_ELL = 4
MAX_M = 5


def _f(t: float) -> float:
    """(t/(1-t)) * log2(1/t), continuously extended: 0 at t=0, log2(e) at t=1."""
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return LOG2E
    return -(t / (1.0 - t)) * math.log2(t)


def _g(t: float, d: int) -> float:
    """t*[ _f(t) - log2(d*t) ], the per-edge term of the degree split."""
    if t == 1.0:
        return LOG2E - math.log2(d)
    return t * _f(t) - t * math.log2(d * t)


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


class Enumeration:
    """All X-saturating matchings of b as partner tuples, plus the exact
    joint tables over the uniform (matching, order) pair. Built once and
    shared by every audit of (b, ell)."""

    def __init__(self, b: BipartiteGraph, ell: int):
        if b.size_x != ell:
            raise ValueError(f"need size_x == ell, got {b.size_x} vs {ell}")
        if ell > MAX_ELL or b.size_y > MAX_M:
            raise CapExceeded(
                f"enumeration audits are capped at ell <= {MAX_ELL}, M <= {MAX_M}, "
                f"got ell = {ell}, M = {b.size_y}; the caps are the fixed constants "
                "prooflab.MAX_ELL and prooflab.MAX_M, with no knob")
        if ell > b.size_y:
            raise ValueError(f"need ell <= size_y, got {ell} > {b.size_y}")
        self.b = b
        self.ell = ell
        self.m = b.size_y
        # with |X| = ell every ell-matching saturates X; edges are sorted by x,
        # so each matching reads as its partner tuple, in lexicographic order
        self.fs: list[tuple[int, ...]] = list(
            enumerate_matchings(b.to_graph(), ell, [y for _x, y in b.edges]))
        self.count = len(self.fs)
        if self.count == 0:
            raise ValueError("graph has no X-saturating matching")
        self.orders = list(permutations(range(ell)))
        self.weight = Fraction(1, self.count * len(self.orders))
        # exact partner marginals
        self.p = [[Fraction(0)] * self.m for _ in range(ell)]
        unit = Fraction(1, self.count)
        for f in self.fs:
            for x, y in enumerate(f):
                self.p[x][y] += unit
        self.mu = [sum((self.p[x][y] for x in range(ell)), Fraction(0))
                   for y in range(self.m)]
        self.nu = [1 - v for v in self.mu]
        self._size_tables: dict[int, tuple] = {}

    def _outcomes(self, x: int):
        """Yield (partner, prefix, available-set) per (matching, order)."""
        ally = frozenset(range(self.m))
        for order in self.orders:
            pos = order.index(x)
            before = order[:pos]
            for f in self.fs:
                taken = frozenset(f[w] for w in before)
                yield f[x], tuple((w, f[w]) for w in before), ally - taken

    def size_tables(self, x: int):
        """Exact tables over the available-set size k:
        unconditional q[k], conditional-on-partner q_cond[y][k], and the
        joint r[(k, y)] = Pr(size k and y still available). Computed once
        per x; callers must not modify them."""
        if not 0 <= x < self.ell:
            raise ValueError(f"x out of range: {x}")
        if x not in self._size_tables:
            self._size_tables[x] = self._compute_size_tables(x)
        return self._size_tables[x]

    def _compute_size_tables(self, x: int):
        q: dict[int, Fraction] = defaultdict(Fraction)
        q_cond: dict[int, dict[int, Fraction]] = defaultdict(lambda: defaultdict(Fraction))
        r: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        w = self.weight
        for partner, _hist, avail in self._outcomes(x):
            k = len(avail)
            q[k] += w
            q_cond[partner][k] += w
            for y in avail:
                r[(k, y)] += w
        for y, table in q_cond.items():
            norm = self.p[x][y]
            for k in table:
                table[k] /= norm
        return dict(q), {y: dict(t) for y, t in q_cond.items()}, dict(r)

    def conditional_entropy_given_available(self, x: int) -> float:
        joint: dict = defaultdict(Fraction)
        for partner, _hist, avail in self._outcomes(x):
            joint[(partner, avail)] += self.weight
        return _conditional_entropy(joint, key=lambda k: k[1])

    def conditional_entropy_given_history(self, x: int) -> float:
        joint: dict = defaultdict(Fraction)
        for partner, hist, _avail in self._outcomes(x):
            joint[(partner, frozenset(hist))] += self.weight
        return _conditional_entropy(joint, key=lambda k: k[1])


def _conditional_entropy(joint: dict, key) -> float:
    marg: dict = defaultdict(Fraction)
    for k, pr in joint.items():
        marg[key(k)] += pr
    h = 0.0
    for k, pr in joint.items():
        if pr:
            h += float(pr) * math.log2(marg[key(k)] / pr)
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
            "qTable": {str(k): _frac_str(v) for k, v in sorted(self.q_table.items())},
            "rTable": {f"{k},{y}": _frac_str(v)
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


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
        h_x = entropy_bits(enum.p[x])
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


# ---------------------------------------------------------------------------
# individual proof-step checks (used by the property tests)
# ---------------------------------------------------------------------------

def step_refinement_audit(enum: Enumeration) -> list[dict]:
    """Per-(x, y) refinement: the table value F is at most the midpoint sum
    of U(j/(ell-1)), which is at most the closed concave form."""
    ell = enum.ell
    results = []
    for x in range(ell):
        _q, q_cond, r_full = enum.size_tables(x)
        for y in range(enum.m):
            p_xy = enum.p[x][y]
            if not p_xy:
                continue
            f_xy = _table_term(q_cond[y], r_full, y)
            a = float(enum.mu[y] - p_xy)
            c = float(enum.nu[y] + p_xy)
            if ell == 1:
                midpoint = math.log2(c)
            else:
                midpoint = sum(math.log2(a * (j / (ell - 1)) + c)
                               for j in range(ell)) / ell
            endpoint = _f(c) - LOG2E
            results.append({
                "x": x, "y": y, "table": f_xy, "midpoint": midpoint,
                "endpoint": endpoint,
                "ok": f_xy <= midpoint + TOL and midpoint <= endpoint + TOL,
            })
    return results


def gx_step_audit(enum: Enumeration) -> list[dict]:
    """Per-x concavity step: the summed per-edge terms are at most
    log2(d_x)/(d_x - 1)."""
    degs = enum.b.degrees_x
    results = []
    for x in range(enum.ell):
        lhs = sum(_g(float(enum.p[x][y]), degs[x])
                  for y in range(enum.m) if enum.p[x][y])
        rhs = log_ratio(degs[x])
        results.append({"x": x, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + TOL})
    return results


def middle_step_audit(enum: Enumeration) -> dict:
    """Concavity of t*log2(1/t) over the nu values against the aggregate."""
    lhs = entropy_bits(enum.nu)
    alpha_y = enum.ell / enum.m
    alpha_term = 0.0 if alpha_y == 0 else alpha_y * math.log2(alpha_y)
    rhs = enum.m * (binary_entropy(alpha_y) + alpha_term)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + TOL}


# ---------------------------------------------------------------------------
# audit catalog
# ---------------------------------------------------------------------------

def tiny_bipartite_catalog(seed: int = 20240911) -> list[tuple[BipartiteGraph, int]]:
    """Instances for the audit suite: every connectivity pattern with
    |X| = 2 and M <= 4 (no isolated vertices, at least one X-saturating
    matching), plus seeded random instances up to the enumeration caps."""
    instances = []
    for m in (2, 3, 4):
        pairs = [(x, y) for x in range(2) for y in range(m)]
        for bits in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            cand = BipartiteGraph(2, m, edges)
            if min(cand.degrees_x) < 1 or min(cand.degrees_y) < 1:
                continue
            if saturating_count(cand) > 0:
                instances.append((cand, 2))
    rng = random.Random(seed)
    for ell, m, wanted in ((3, 4, 8), (3, 5, 8), (4, 5, 8)):
        got = 0
        while got < wanted:
            edges = [(x, y) for x in range(ell) for y in range(m)
                     if rng.random() < 0.55]
            try:
                cand = BipartiteGraph(ell, m, edges)
            except ValueError:
                continue
            if min(cand.degrees_x) < 1 or min(cand.degrees_y) < 1:
                continue
            if saturating_count(cand) > 0:
                instances.append((cand, ell))
                got += 1
    return instances
