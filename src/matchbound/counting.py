"""Exact matching profiles and matching marginals.

All counts are arbitrary-precision integers; marginals are exact rationals.
Logs happen only at the bounds layer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded
from .graphs import BipartiteGraph, Graph

MEMO_CAP_ENV = "MATCHBOUND_MEMO_CAP"
DEFAULT_MEMO_CAP = 1 << 24
MAX_MEMOIZED_VERTICES = 64
MAX_BRUTEFORCE_EDGES = 24


def _memo_cap(override: int | None) -> int:
    if override is not None:
        return override
    env = os.environ.get(MEMO_CAP_ENV)
    if not env:
        return DEFAULT_MEMO_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{MEMO_CAP_ENV} must be an integer, got {env!r}") from None


class MaskProfiler:
    """Matching-profile counter for induced subgraphs of one fixed graph.

    profile(mask) returns the matching profile of the subgraph induced by the
    vertex bitmask, as a tuple trimmed after the last nonzero count. Results
    are memoized on the mask, so repeated queries (e.g. all single-pair
    deletions for marginals) share work.

    Recurrence: split on the lowest-index vertex v of maximum residual degree;
    either v is unmatched, or it is matched to one of its residual neighbors.
    Disconnected residuals factor into a convolution of component profiles,
    which keeps disjoint unions (and double covers) cheap.
    """

    __slots__ = ("n", "adj_masks", "memo", "cap")

    def __init__(self, g: Graph, memo_cap: int | None = None):
        if g.n > MAX_MEMOIZED_VERTICES:
            raise CapExceeded(
                f"memoized counting is limited to {MAX_MEMOIZED_VERTICES} vertices, got {g.n}")
        self.n = g.n
        adj = [0] * g.n
        for u, v in g.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj_masks = adj
        self.memo: dict[int, tuple[int, ...]] = {}
        self.cap = _memo_cap(memo_cap)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def profile(self, mask: int) -> tuple[int, ...]:
        memo = self.memo
        cached = memo.get(mask)
        if cached is not None:
            return cached
        adj = self.adj_masks
        # connected component of the lowest remaining vertex
        comp = 0
        frontier = mask & -mask
        while frontier:
            comp |= frontier
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= adj[low.bit_length() - 1]
                m ^= low
            frontier = grow & mask & ~comp
        if comp != mask:
            left = self.profile(comp)
            right = self.profile(mask ^ comp)
            counts = [0] * (len(left) + len(right) - 1)
            for i, a in enumerate(left):
                for j, b in enumerate(right):
                    counts[i + j] += a * b
            out = tuple(counts)
        else:
            out = self._profile_connected(mask)
        if len(memo) >= self.cap:
            raise CapExceeded(f"memo cap of {self.cap} entries exceeded")
        memo[mask] = out
        return out

    def _profile_connected(self, mask: int) -> tuple[int, ...]:
        adj = self.adj_masks
        best_v = -1
        best_deg = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (adj[v] & mask).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
            m ^= low
        if best_deg == 0:
            # no edges left in the residual graph
            return (1,)
        rest = mask ^ (1 << best_v)
        counts = list(self.profile(rest))
        nb = adj[best_v] & mask
        while nb:
            low = nb & -nb
            sub = self.profile(rest ^ low)
            if len(counts) < len(sub) + 1:
                counts.extend([0] * (len(sub) + 1 - len(counts)))
            for j, c in enumerate(sub):
                counts[j + 1] += c
            nb ^= low
        return tuple(counts)

    def count(self, mask: int, ell: int) -> int:
        prof = self.profile(mask)
        return prof[ell] if 0 <= ell < len(prof) else 0


def matching_profile(g: Graph, memo_cap: int | None = None) -> list[int]:
    """Exact profile [count of 0-matchings, ..., count of floor(n/2)-matchings]."""
    profiler = MaskProfiler(g, memo_cap)
    prof = list(profiler.profile(profiler.full_mask()))
    return prof + [0] * (g.n // 2 + 1 - len(prof))


def matching_profile_bruteforce(g: Graph) -> list[int]:
    """Independent oracle: depth-first enumeration of every matching.

    No memoization; each matching is visited exactly once (edges in
    increasing index order). Capped at 24 edges.
    """
    if g.num_edges > MAX_BRUTEFORCE_EDGES:
        raise CapExceeded(
            f"brute force is limited to {MAX_BRUTEFORCE_EDGES} edges, got {g.num_edges}")
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    m = len(masks)
    counts = [0] * (g.n // 2 + 1)
    counts[0] = 1

    def extend(start: int, used: int, size: int) -> None:
        nxt = size + 1
        for i in range(start, m):
            em = masks[i]
            if not used & em:
                counts[nxt] += 1
                extend(i + 1, used | em, nxt)

    extend(0, 0, 0)
    return counts


def profile_convolution(a, b) -> list[int]:
    """Profile of a disjoint union: c[l] = sum_j a[j] * b[l-j]."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def kdd_profile(d: int) -> list[int]:
    """Closed-form profile of K_{d,d}: count[l] = C(d,l)^2 * l!."""
    if d < 1:
        raise ValueError("d must be positive")
    return [math.comb(d, l) ** 2 * math.factorial(l) for l in range(d + 1)]


def umc_extremal_profile(n_vertices: int, d: int) -> list[int]:
    """Exact profile of the disjoint union of n/(2d) copies of K_{d,d}."""
    if d < 1:
        raise ValueError("degree must be positive")
    if n_vertices % (2 * d) != 0:
        raise ValueError(f"2d = {2 * d} must divide N = {n_vertices}")
    block = kdd_profile(d)
    prof = [1]
    for _ in range(n_vertices // (2 * d)):
        prof = profile_convolution(prof, block)
    return prof


def profile_to_json(counts) -> str:
    """Counts as decimal strings so arbitrary precision survives round-trip."""
    return json.dumps({"schema": 1, "counts": [str(c) for c in counts]})


def profile_from_json(text: str) -> list[int]:
    doc = json.loads(text)
    return [int(c) for c in doc["counts"]]


@dataclass
class MarginalTable:
    """Exact edge marginals of the uniform random X-saturating matching.

    p[x][y] is the probability the matching pairs x with y; mu[y] the
    probability y is covered; h_edge[x] the entropy (bits) of x's partner.
    """

    ell: int
    p: list[list[Fraction]]
    mu: list[Fraction]
    nu: list[Fraction]
    h_edge: list[float]

    def to_json_dict(self) -> dict:
        frac = lambda f: f"{f.numerator}/{f.denominator}"
        return {
            "schema": 1,
            "ell": self.ell,
            "p": [[frac(v) for v in row] for row in self.p],
            "mu": [frac(v) for v in self.mu],
            "nu": [frac(v) for v in self.nu],
            "hEdgeBits": list(self.h_edge),
        }


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of exact probabilities, zeros skipped."""
    h = 0.0
    for pr in probs:
        if pr:
            val = float(pr)
            h -= val * math.log2(val)
    return h


def matching_marginals(b: BipartiteGraph, ell: int) -> MarginalTable:
    """Exact rational marginals for the uniform ell-matching of b.

    Requires size_x == ell <= size_y, so every ell-matching saturates X and
    p[x][y] = (#matchings avoiding x and y, size ell-1) / (#matchings, size ell).
    """
    if b.size_x != ell:
        raise ValueError(f"marginals need size_x == ell (got {b.size_x} vs {ell})")
    if ell > b.size_y:
        raise ValueError(f"need ell <= size_y (got {ell} > {b.size_y})")
    g = b.to_graph()
    profiler = MaskProfiler(g)
    full = profiler.full_mask()
    total = profiler.count(full, ell)
    if total == 0:
        raise ValueError("graph has no X-saturating matching")
    p = [[Fraction(0)] * b.size_y for _ in range(b.size_x)]
    for x, y in b.edges:
        sub = full ^ (1 << x) ^ (1 << (b.size_x + y))
        p[x][y] = Fraction(profiler.count(sub, ell - 1), total)
    mu = [sum((p[x][y] for x in range(b.size_x)), Fraction(0)) for y in range(b.size_y)]
    nu = [1 - m for m in mu]
    return MarginalTable(ell=ell, p=p, mu=mu, nu=nu,
                         h_edge=[entropy_bits(row) for row in p])
