"""Independent reference formulas and tiny helpers used as test oracles.

These deliberately avoid the library's code paths: closed forms, explicit
enumerations, and (for graph6) networkx as an external reference encoder.
"""

from __future__ import annotations

import math
from itertools import combinations


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
