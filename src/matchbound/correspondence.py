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
from itertools import product, starmap
from operator import add

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
          2^(c - op) * C(op, op/2) ordered matching pairs, every other pattern of
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
    fibers = Counter(enumerate_matchings(gk, 2 * ell, cover_labels, 0))
    measured = count * count <= COVER_CAP  # by (e), unless the audit fails
    keys = list(enumerate_matchings(g, ell, labels, 0)) if measured else []
    pair_fibers = Counter(starmap(add, product(keys, repeat=2)))
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
            pattern = {"edges": [[u, v, mult] for (u, v), mult in items(key)],
                       "nonTwoCycleComponents": comps, "oddPathComponents": odd_paths,
                       "hasOddCycle": odd_cycle, "valid": valid}
            offenders.append({"check": check, "pattern": pattern, **extra})

    ok_a = ok_b = True
    sum_even = sum_even_claimed = sum_all = 0
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
