"""Multiset unions of matching pairs, their projection from the double cover,
and exact fiber-size verification of both surjections.

A pattern here is a multigraph with 2*ell edges whose components are paths
and cycles (2-cycles, i.e. doubled edges, allowed). Patterns without odd
cycles are exactly the multiset unions of two ell-matchings; projections of
cover matchings may additionally contain odd cycles.

Fiber sizes: the projection map has fibers of size exactly 2^c, where c
counts the non-2-cycle components. The pair map splits each component into
alternating halves, so components that are paths with an odd number of
edges leave the two sides unbalanced by one; its fiber size is therefore
2^(c - op) * C(op, op/2) with op the number of such components. The two
laws agree exactly when op = 0 (in particular for perfect matchings, where
no path components occur at all).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .counting import enumerate_matchings, matching_profile
from .errors import CapExceeded
from .graphs import Graph, bipartite_double_cover

DEFAULT_COUNT_CAP = 10_000
DEFAULT_COVER_CAP = 100_000


@dataclass(frozen=True)
class UnionPattern:
    """A classified edge-multiset pattern.

    edges is the canonical form: sorted ((u, v), multiplicity) pairs.
    """

    n: int
    edges: tuple
    non_two_cycle_components: int
    odd_path_components: int
    has_odd_cycle: bool
    valid: bool

    def cover_fiber_size(self) -> int:
        """Number of cover matchings projecting onto this pattern: 2^c."""
        if not self.valid:
            return 0
        return 2 ** self.non_two_cycle_components

    def pair_fiber_size(self) -> int:
        """Number of ordered matching pairs with this multiset union:
        2^(c - op) * C(op, op/2), zero for odd-cycle patterns."""
        if not self.valid or self.has_odd_cycle or self.odd_path_components % 2:
            return 0
        op = self.odd_path_components
        return 2 ** (self.non_two_cycle_components - op) * math.comb(op, op // 2)

    def to_json_dict(self) -> dict:
        return {
            "edges": [[u, v, mult] for (u, v), mult in self.edges],
            "nonTwoCycleComponents": self.non_two_cycle_components,
            "oddPathComponents": self.odd_path_components,
            "hasOddCycle": self.has_odd_cycle,
            "valid": self.valid,
        }


def _classify_edge_multiset(n: int, mult: Counter) -> UnionPattern:
    key = tuple(sorted(mult.items()))
    deg: Counter = Counter()
    adj: dict[int, set] = {}
    for (u, v), m in mult.items():
        deg[u] += m
        deg[v] += m
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    valid = all(m <= 2 for m in mult.values()) and all(d <= 2 for d in deg.values())
    loose = 0
    odd_paths = 0
    has_odd = False
    if valid:
        seen: set = set()
        for start in adj:
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(w for w in adj[u] if w not in comp)
            seen |= comp
            edge_count = sum(m for (u, v), m in mult.items() if u in comp)
            if edge_count == len(comp) - 1:
                loose += 1  # path component
                if edge_count % 2 == 1:
                    odd_paths += 1
            elif edge_count == len(comp):
                if len(comp) != 2:
                    loose += 1  # proper cycle
                    if len(comp) % 2 == 1:
                        has_odd = True
            else:
                valid = False
    if not valid:
        loose = odd_paths = 0
    return UnionPattern(n=n, edges=key, non_two_cycle_components=loose,
                        odd_path_components=odd_paths, has_odd_cycle=has_odd,
                        valid=valid)


def _check_matching(edges, n: int, graph: Graph | None, label: str) -> list:
    norm = []
    used = set()
    edge_set = set(graph.edges) if graph is not None else None
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{label}: bad edge ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if edge_set is not None and e not in edge_set:
            raise ValueError(f"{label}: ({u}, {v}) is not a graph edge")
        if u in used or v in used:
            raise ValueError(f"{label}: edges are not disjoint")
        used.add(u)
        used.add(v)
        norm.append(e)
    return norm


def multiset_union_classify(m1, m2, graph: Graph | None = None,
                            n: int | None = None) -> UnionPattern:
    """Classify the multiset union of two equal-size matchings."""
    if graph is None and n is None:
        raise ValueError("pass the host graph or a vertex count")
    nn = graph.n if graph is not None else n
    e1 = _check_matching(m1, nn, graph, "first matching")
    e2 = _check_matching(m2, nn, graph, "second matching")
    if len(e1) != len(e2):
        raise ValueError(f"matchings differ in size: {len(e1)} vs {len(e2)}")
    return _classify_edge_multiset(nn, Counter(e1) + Counter(e2))


def project_cover_matching(cover_matching, g: Graph) -> UnionPattern:
    """Project a matching of the double cover of g down to g.

    Cover edges are (x, y) pairs meaning X-copy of x matched to Y-copy of y;
    the image edge is {x, y} counted with multiplicity.
    """
    edge_set = set(g.edges)
    xs: set = set()
    ys: set = set()
    mult: Counter = Counter()
    for x, y in cover_matching:
        if not (0 <= x < g.n and 0 <= y < g.n):
            raise ValueError(f"cover vertex out of range: ({x}, {y})")
        e = (x, y) if x < y else (y, x)
        if e not in edge_set:
            raise ValueError(f"({x}, {y}) does not project to a graph edge")
        if x in xs or y in ys:
            raise ValueError("cover edges are not disjoint")
        xs.add(x)
        ys.add(y)
        mult[e] += 1
    return _classify_edge_multiset(g.n, mult)


def count_pair_decompositions(pattern: UnionPattern, ell: int) -> int:
    """Number of ordered pairs of ell-matchings whose multiset union is the
    pattern, by direct assignment enumeration (the fiber of the union map)."""
    if not pattern.valid:
        return 0
    singles = []
    doubles = []
    for (u, v), m in pattern.edges:
        mask = (1 << u) | (1 << v)
        if m == 1:
            singles.append(mask)
        elif m == 2:
            doubles.append(mask)
        else:
            return 0
    base = 0
    for mask in doubles:
        if base & mask:
            return 0
        base |= mask
    per_side = ell - len(doubles)
    if per_side < 0 or len(singles) != 2 * per_side:
        return 0
    total = 0

    def assign(i: int, used_a: int, used_b: int, cnt_a: int, cnt_b: int):
        nonlocal total
        if i == len(singles):
            total += 1
            return
        mask = singles[i]
        if cnt_a < per_side and not used_a & mask:
            assign(i + 1, used_a | mask, used_b, cnt_a + 1, cnt_b)
        if cnt_b < per_side and not used_b & mask:
            assign(i + 1, used_a, used_b | mask, cnt_a, cnt_b + 1)

    assign(0, base, base, 0, 0)
    return total


@dataclass
class AuditCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AuditReport:
    """Outcome of the fiber-size audit for one (graph, ell)."""

    graph_id: str
    ell: int
    checks: list[AuditCheck] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    offenders: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "graphId": self.graph_id,
            "ell": self.ell,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "totals": {k: str(v) for k, v in self.totals.items()},
            "offenders": self.offenders[:10],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def verify_fibers(g: Graph, ell: int, graph_id: str = "",
                  count_cap: int = DEFAULT_COUNT_CAP,
                  cover_cap: int = DEFAULT_COVER_CAP) -> AuditReport:
    """Exact fiber-size verification, by full enumeration.

    Enumerates all 2*ell-matchings of the double cover, classifies their
    projections, and checks:
      (a) every odd-cycle-free pattern decomposes into ordered matching
          pairs in exactly pair_fiber_size() ways,
      (b) every pattern is hit by exactly 2^c cover matchings,
      (c) the squared ell-matching count equals the pair-fiber sum over
          odd-cycle-free patterns,
      (d) the full 2^c sum equals the cover's 2*ell-matching count,
      (e) the squared count is at most the cover count.

    The totals also carry the naive 2^c sum over odd-cycle-free patterns
    ("claimedEvenPatternWeight"); it exceeds the squared count exactly when
    odd-edge-count path components occur.
    """
    if not 0 <= ell <= g.n // 2:
        raise ValueError(f"ell must lie in 0..N/2 = 0..{g.n // 2}, got {ell}")
    count = matching_profile(g)[ell]
    if count > count_cap:
        raise CapExceeded(f"{count} matchings exceed the audit cap {count_cap}")
    gk = bipartite_double_cover(g).to_graph()
    cover_count = matching_profile(gk)[2 * ell]
    if cover_count > cover_cap:
        raise CapExceeded(
            f"{cover_count} cover matchings exceed the audit cap {cover_cap}")

    # label each cover edge (x, n + y) with the index of its image {x, y} in g
    n = g.n
    index = {e: i for i, e in enumerate(g.edges)}
    proj = [index[(u, v - n) if u < v - n else (v - n, u)] for u, v in gk.edges]
    fibers = Counter(tuple(sorted(match))
                     for match in enumerate_matchings(gk, 2 * ell, proj))
    patterns = {key: _classify_edge_multiset(n, Counter(g.edges[i] for i in key))
                for key in fibers}

    report = AuditReport(graph_id=graph_id, ell=ell)
    offenders = report.offenders

    ok_a = ok_b = True
    sum_even = 0
    sum_even_claimed = 0
    sum_all = 0
    for key, pattern in patterns.items():
        if not pattern.valid:
            ok_b = False
            if len(offenders) < 10:
                offenders.append({"check": "b", "pattern": pattern.to_json_dict(),
                                  "detail": "projection is not a path/cycle pattern"})
            continue
        expected_cover = pattern.cover_fiber_size()
        sum_all += expected_cover
        if fibers[key] != expected_cover:
            ok_b = False
            if len(offenders) < 10:
                offenders.append({"check": "b", "pattern": pattern.to_json_dict(),
                                  "expected": expected_cover, "actual": fibers[key]})
        if not pattern.has_odd_cycle:
            expected_pairs = pattern.pair_fiber_size()
            sum_even += expected_pairs
            sum_even_claimed += expected_cover
            pairs = count_pair_decompositions(pattern, ell)
            if pairs != expected_pairs:
                ok_a = False
                if len(offenders) < 10:
                    offenders.append({"check": "a", "pattern": pattern.to_json_dict(),
                                      "expected": expected_pairs, "actual": pairs})

    report.totals = {
        "countSquared": count * count,
        "evenPatternWeight": sum_even,
        "claimedEvenPatternWeight": sum_even_claimed,
        "allPatternWeight": sum_all,
        "coverCount": cover_count,
    }
    report.checks = [
        AuditCheck("a: pair-fiber sizes", ok_a),
        AuditCheck("b: projection-fiber sizes", ok_b),
        AuditCheck("c: squared count identity", sum_even == count * count,
                   f"{sum_even} vs {count * count}"),
        AuditCheck("d: cover count identity", sum_all == cover_count,
                   f"{sum_all} vs {cover_count}"),
        AuditCheck("e: cover dominates square", count * count <= cover_count,
                   f"{count * count} <= {cover_count}"),
    ]
    return report
