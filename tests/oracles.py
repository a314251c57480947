"""Independent reference formulas and tiny helpers used as test oracles.

These deliberately avoid the library's code paths: closed forms, explicit
enumerations, and (for graph6) networkx as an external reference encoder.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from matchbound import UnionPattern


def cycle_profile(n: int) -> list[int]:
    """Closed form for cycles: count[l] = n/(n-l) * C(n-l, l)."""
    out = [1]
    for l in range(1, n // 2 + 1):
        out.append(n * math.comb(n - l, l) // (n - l))
    return out


def kdd_count(d: int, l: int) -> int:
    return math.comb(d, l) ** 2 * math.factorial(l)


def elementary_symmetric_by_subsets(values, ell: int) -> int:
    """e_ell by explicit summation over all ell-subsets."""
    total = 0
    for subset in combinations(values, ell):
        prod = 1
        for v in subset:
            prod *= v
        total += prod
    return total


def matchings_by_subsets(edges, size: int) -> list[tuple]:
    """All size-subsets of the edge list that are pairwise disjoint."""
    out = []
    for subset in combinations(edges, size):
        used = set()
        ok = True
        for u, v in subset:
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if ok:
            out.append(subset)
    return out


def classify_multigraph(items) -> tuple[bool, int, int, bool]:
    """(valid, c, op, has_odd_cycle) of an edge multiset given as
    ((u, v), multiplicity) items, from a vertex-set search per component.

    Valid: every multiplicity and every degree (with multiplicity) is at most
    2. c counts the components other than doubled edges, op the paths with an
    odd number of edges; an odd cycle is a cycle on an odd number (>= 3) of
    vertices. Invalid multisets read (False, 0, 0, False).
    """
    degree: dict = {}
    adjacent: dict = {}
    for (u, v), m in items:
        for a, b in ((u, v), (v, u)):
            degree[a] = degree.get(a, 0) + m
            adjacent.setdefault(a, set()).add(b)
    if any(m > 2 for _, m in items) or any(d > 2 for d in degree.values()):
        return False, 0, 0, False
    comps = odd_paths = 0
    odd_cycle = False
    seen: set = set()
    for start in adjacent:
        if start in seen:
            continue
        comp = {start}
        todo = [start]
        while todo:
            for w in adjacent[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        edges = sum(m for (u, _v), m in items if u in comp)
        if edges == len(comp) - 1:
            comps += 1
            odd_paths += edges % 2
        elif len(comp) > 2:
            comps += 1
            odd_cycle = odd_cycle or len(comp) % 2 == 1
    return True, comps, odd_paths, odd_cycle


def count_pair_decompositions(pattern: UnionPattern, ell: int) -> int:
    """Number of ordered pairs of ell-matchings whose multiset union is the
    pattern, by direct assignment enumeration (the fiber of the union map).
    An independent count: verify_fibers measures pair fibers by enumerating
    the pairs themselves."""
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


def order_walk(edges, ell: int, m: int, x: int) -> tuple:
    """The proof-lab tables of X-vertex x by walking every (insertion order,
    X-saturating matching) pair with one Fraction weight per pair: (q, q_cond,
    r, H(partner | available set), H(partner | history)).

    Matchings are partner tuples in lexicographic order, found by brute force
    over all ell-permutations of Y, so the float sums add their terms in the
    proof lab's order.
    """
    edge_set = set(edges)
    fs = [f for f in permutations(range(m), ell)
          if all((w, y) in edge_set for w, y in enumerate(f))]
    orders = list(permutations(range(ell)))
    weight = Fraction(1, len(fs) * len(orders))
    q: dict = defaultdict(Fraction)
    q_cond: dict = defaultdict(lambda: defaultdict(Fraction))
    r: dict = defaultdict(Fraction)
    given_available: dict = defaultdict(Fraction)
    given_history: dict = defaultdict(Fraction)
    for order in orders:
        before = order[:order.index(x)]
        for f in fs:
            avail = frozenset(range(m)) - frozenset(f[w] for w in before)
            k = len(avail)
            q[k] += weight
            q_cond[f[x]][k] += weight
            for y in avail:
                r[(k, y)] += weight
            given_available[(f[x], avail)] += weight
            given_history[(f[x], frozenset((w, f[w]) for w in before))] += weight
    for y, table in q_cond.items():
        norm = Fraction(sum(f[x] == y for f in fs), len(fs))
        for k in table:
            table[k] /= norm
    return (dict(q), {y: dict(t) for y, t in q_cond.items()}, dict(r),
            _conditional_entropy(given_available), _conditional_entropy(given_history))


def _conditional_entropy(joint: dict) -> float:
    """H(first | second) in bits of a joint law keyed by pairs, summed in the
    joint's key order."""
    marg: dict = defaultdict(Fraction)
    for (_a, b), pr in joint.items():
        marg[b] += pr
    h = 0.0
    for (_a, b), pr in joint.items():
        h += float(pr) * math.log2(marg[b] / pr)
    return h
