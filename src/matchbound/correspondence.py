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

import math
from collections import Counter
from dataclasses import dataclass, field

from .counting import enumerate_matchings, matching_profile
from .errors import CapExceeded
from .graphs import Graph, bipartite_double_cover

COUNT_CAP = 10_000
COVER_CAP = 100_000


def _pair_fiber(comps: int, odd_paths: int, has_odd_cycle: bool) -> int:
    """2^(c - op) * C(op, op/2), zero for odd-cycle patterns and odd op."""
    if has_odd_cycle or odd_paths % 2:
        return 0
    return (1 << (comps - odd_paths)) * math.comb(odd_paths, odd_paths // 2)


@dataclass(frozen=True)
class UnionPattern:
    """A classified edge-multiset pattern.

    edges is the canonical form: sorted ((u, v), multiplicity) pairs.
    """

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
        if not self.valid:
            return 0
        return _pair_fiber(self.non_two_cycle_components, self.odd_path_components,
                           self.has_odd_cycle)

    def to_json_dict(self) -> dict:
        return {
            "edges": [[u, v, mult] for (u, v), mult in self.edges],
            "nonTwoCycleComponents": self.non_two_cycle_components,
            "oddPathComponents": self.odd_path_components,
            "hasOddCycle": self.has_odd_cycle,
            "valid": self.valid,
        }


_INVALID = (False, 0, 0, False)


def _classify(items) -> tuple[bool, int, int, bool]:
    """The one pattern classifier: (valid, c, op, has_odd_cycle) of the edge
    multiset given by its ((u, v), multiplicity) items.

    Valid means every multiplicity and every degree is at most 2. A doubled
    edge is then a component of its own (a 2-cycle); the single edges form
    paths and cycles, which are walked with vertices as one-bit masks: each
    vertex's neighbours are OR-ed into one mask, so the step out of an
    interior vertex is that mask XOR the bit we came from. c counts the
    components of the single edges, op their paths with an odd edge count.
    """
    once = twice = 0  # vertices of degree >= 1 and of degree 2
    nbrs: dict[int, int] = {}
    for (u, v), m in items:
        bu = 1 << u
        bv = 1 << v
        b = bu | bv
        if m == 1 and not twice & b:
            twice |= once & b
            once |= b
            nbrs[bu] = nbrs.get(bu, 0) | bv
            nbrs[bv] = nbrs.get(bv, 0) | bu
        elif m == 2 and not once & b:
            once |= b
            twice |= b
        else:
            return _INVALID
    comps = odd_paths = odd_cycle = seen = 0
    ends = once & ~twice
    while ends:  # paths, from their lowest end
        start = ends & -ends
        prev, cur, length = start, nbrs[start], 1
        while twice & cur:
            seen |= cur
            prev, cur = cur, nbrs[cur] ^ prev
            length += 1
        ends ^= start | cur
        comps += 1
        odd_paths += length & 1
    # single-edge vertices (the keys of nbrs, distinct bits) that are neither
    # path ends nor path interiors lie on cycles
    rest = sum(nbrs) & twice & ~seen
    while rest:
        start = rest & -rest
        prev, cur, length = start, nbrs[start] & -nbrs[start], 1
        while cur != start:
            rest ^= cur
            prev, cur = cur, nbrs[cur] ^ prev
            length += 1
        rest ^= start
        comps += 1
        odd_cycle |= length & 1
    return True, comps, odd_paths, bool(odd_cycle)


def _pattern(items) -> UnionPattern:
    """A UnionPattern from sorted ((u, v), multiplicity) items."""
    valid, comps, odd_paths, odd_cycle = _classify(items)
    return UnionPattern(edges=tuple(items), non_two_cycle_components=comps,
                        odd_path_components=odd_paths, has_odd_cycle=odd_cycle,
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
    return _pattern(sorted((Counter(e1) + Counter(e2)).items()))


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
    return _pattern(sorted(mult.items()))


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


def verify_fibers(g: Graph, ell: int, graph_id: str = "") -> AuditReport:
    """Exact fiber-size verification, by full enumeration.

    A pattern is keyed by one integer, with a base-4 digit per edge of g
    holding its multiplicity (at most 2, so digits never carry): edge i of g
    and both of its cover edges are labelled 1 << 2*i, and a matching's key
    is the sum of its labels. Enumerates all 2*ell-matchings of the double
    cover, and all ordered pairs of ell-matchings of g (count^2 of them, at
    most the cover count by (e), and never more than COVER_CAP), and checks:
      (a) every odd-cycle-free pattern is the multiset union of exactly
          pair_fiber_size() ordered matching pairs, every other pattern of
          none, and every pair union is some cover matching's projection,
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
    if count > COUNT_CAP:
        raise CapExceeded(
            f"{count} matchings exceed the audit cap {COUNT_CAP}; the cap is the "
            "fixed constant correspondence.COUNT_CAP, with no knob")
    gk = bipartite_double_cover(g).to_graph()
    cover_count = matching_profile(gk)[2 * ell]
    if cover_count > COVER_CAP:
        raise CapExceeded(
            f"{cover_count} cover matchings exceed the audit cap {COVER_CAP}; the cap "
            "is the fixed constant correspondence.COVER_CAP, with no knob")

    n = g.n
    labels = [1 << 2 * i for i in range(g.num_edges)]
    # cover edge (x, n + y) carries the label of its image {x, y}
    index = {e: i for i, e in enumerate(g.edges)}
    cover_labels = [labels[index[(u, v - n) if u < v - n else (v - n, u)]]
                    for u, v in gk.edges]
    fibers = Counter(map(sum, enumerate_matchings(gk, 2 * ell, cover_labels)))
    measured = count * count <= COVER_CAP  # by (e), unless the audit fails
    keys = list(map(sum, enumerate_matchings(g, ell, labels))) if measured else []
    pair_fibers = Counter(a + b for a in keys for b in keys)
    digits = {}  # a key's lowest set bit -> its (edge, multiplicity) item
    for i, e in enumerate(g.edges):
        digits[labels[i]] = (e, 1)
        digits[labels[i] << 1] = (e, 2)

    def items(key):
        out = []
        while key:
            low = key & -key
            out.append(digits[low])
            key ^= low
        return out

    report = AuditReport(graph_id=graph_id, ell=ell)
    offenders = report.offenders

    def offend(check, key, classified, **extra):
        if len(offenders) < 10:
            valid, comps, odd_paths, odd_cycle = classified
            pattern = UnionPattern(tuple(items(key)), comps, odd_paths, odd_cycle, valid)
            offenders.append({"check": check, "pattern": pattern.to_json_dict(), **extra})

    ok_a = ok_b = True
    sum_even = 0
    sum_even_claimed = 0
    sum_all = 0
    for key in {**fibers, **pair_fibers}:  # cover-reached patterns first
        classified = _classify(items(key))
        valid, comps, odd_paths, odd_cycle = classified
        hits, pairs = fibers[key], pair_fibers[key]
        if not hits:
            ok_a = False
            offend("a", key, classified, actual=pairs,
                   detail="no cover matching projects onto this pair union")
            continue
        if not valid:
            ok_b = False
            offend("b", key, classified, detail="projection is not a path/cycle pattern")
            continue
        expected_cover = 1 << comps
        sum_all += expected_cover
        if hits != expected_cover:
            ok_b = False
            offend("b", key, classified, expected=expected_cover, actual=hits)
        expected_pairs = _pair_fiber(comps, odd_paths, odd_cycle)
        if not odd_cycle:
            sum_even += expected_pairs
            sum_even_claimed += expected_cover
        if measured and pairs != expected_pairs:
            ok_a = False
            offend("a", key, classified, expected=expected_pairs, actual=pairs)
    detail_a = "" if measured else (f"pair fibers not measured: {count * count} "
                                    f"ordered pairs exceed the audit cap {COVER_CAP}")
    ok_a = ok_a and measured

    report.totals = {
        "countSquared": count * count,
        "evenPatternWeight": sum_even,
        "claimedEvenPatternWeight": sum_even_claimed,
        "allPatternWeight": sum_all,
        "coverCount": cover_count,
    }
    report.checks = [
        AuditCheck("a: pair-fiber sizes", ok_a, detail_a),
        AuditCheck("b: projection-fiber sizes", ok_b),
        AuditCheck("c: squared count identity", sum_even == count * count,
                   f"{sum_even} vs {count * count}"),
        AuditCheck("d: cover count identity", sum_all == cover_count,
                   f"{sum_all} vs {cover_count}"),
        AuditCheck("e: cover dominates square", count * count <= cover_count,
                   f"{count * count} <= {cover_count}"),
    ]
    return report
