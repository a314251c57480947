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

STATE_CAP_ENV = "MATCHBOUND_STATE_CAP"
DEFAULT_STATE_CAP = 1 << 20
MAX_BRUTEFORCE_EDGES = 24


def _state_cap() -> int:
    env = os.environ.get(STATE_CAP_ENV)
    try:
        return int(env) if env else DEFAULT_STATE_CAP
    except ValueError:
        raise ValueError(f"{STATE_CAP_ENV} must be an integer, got {env!r}") from None


class MaskProfiler:
    """Matching-profile counter: a frontier DP over one greedy vertex sweep.

    The frontier is the set of placed vertices that still have unplaced
    neighbours. The next vertex is an unplaced neighbour of the frontier with
    the least net frontier growth, then the most placed neighbours, then the
    lowest index; with an empty frontier it is the lowest unplaced vertex.

    A state is the bitmask of frontier vertices still unmatched, each holding
    a slot bit while it is on the frontier. Its value is the matching
    polynomial of the placed part packed into one int, with coefficient k at
    bits [k*B, (k+1)*B) and B = |E| + 1: every coefficient counts distinct
    k-subsets of E, so it is at most 2^|E| < 2^B and additions never carry
    between coefficients. Matching one more edge is a shift by B.

    The number of live states is capped by MATCHBOUND_STATE_CAP; `memo`
    holds the widest frontier table of the last sweep.
    """

    __slots__ = ("n", "shift", "plan", "cap", "memo")

    def __init__(self, g: Graph):
        adj = g.adj
        self.n = g.n
        self.shift = g.num_edges + 1
        self.cap = _state_cap()
        self.memo: dict[int, int] = {0: 1}
        # per step: (slot bit of v or 0, slot bits of its placed neighbours, keep mask)
        self.plan = []
        left = [len(a) for a in adj]  # unplaced neighbours of each vertex
        placed = [False] * g.n
        slot: dict[int, int] = {}  # frontier vertex -> its slot bit
        used = start = 0

        def rank(v):  # net frontier growth, most placed neighbours, index
            closes = sum(1 for u in adj[v] if left[u] == 1 and u in slot)
            return ((left[v] > 0) - closes, left[v] - len(adj[v]), v)

        for _ in range(g.n):
            cands = {u for f in slot for u in adj[f] if not placed[u]}
            if cands:
                v = min(cands, key=rank)
            else:
                while placed[start]:
                    start += 1
                v = start
            placed[v] = True
            ubits = []
            done = 0
            for u in adj[v]:
                left[u] -= 1
                if u in slot:
                    ubits.append(slot[u])
                    if not left[u]:
                        done |= slot.pop(u)
            used &= ~done
            vbit = 0
            if left[v]:
                vbit = slot[v] = ~used & (used + 1)
                used |= vbit
            self.plan.append((vbit, tuple(ubits), ~done))

    def profile(self) -> list[int]:
        """[count of 0-matchings, ..., count of floor(n/2)-matchings]."""
        shift, cap, n = self.shift, self.cap, self.n
        table = self.memo = {0: 1}
        for i, (vbit, ubits, keep) in enumerate(self.plan):
            new: dict[int, int] = {}
            get = new.get
            for key, val in table.items():
                k = (key & keep) | vbit
                new[k] = get(k, 0) + val
                for ub in ubits:
                    if key & ub:
                        k = (key ^ ub) & keep
                        new[k] = get(k, 0) + (val << shift)
            if len(new) > cap:
                raise CapExceeded(
                    f"frontier state cap of {cap} exceeded: {len(new)} states at "
                    f"sweep step {i + 1} of {n}; raise it with {STATE_CAP_ENV}")
            if len(new) > len(self.memo):
                self.memo = new
            table = new
        packed, mask = table[0], (1 << shift) - 1
        return [(packed >> (k * shift)) & mask for k in range(n // 2 + 1)]


def matching_profile(g: Graph) -> list[int]:
    """Exact profile [count of 0-matchings, ..., count of floor(n/2)-matchings]."""
    return MaskProfiler(g).profile()


def enumerate_matchings(g: Graph, size: int, labels=None):
    """Yield every matching of exactly `size` edges, in lexicographic order of
    edge indices, as the tuple of labels[i] over its edges (by default the
    edges themselves). The one matching enumerator of the package."""
    if size < 0:
        raise ValueError(f"matching size must be non-negative, got {size}")
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    # lows[i]: the lower endpoints of edges i.. (edges are sorted by them)
    lows = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        lows[i] = lows[i + 1] | 1 << g.edges[i][0]
    labels = g.edges if labels is None else labels
    return _walk(masks, lows, labels, size) if size else iter([()])


def _walk(masks, lows, labels, size: int):
    """Depth-first walk over edge indices with an explicit stack of
    (index, used-vertex mask) for the edges chosen so far. It descends into
    an edge only if enough unused lower endpoints of later edges remain for
    the rest, since the edges of a matching have distinct lower endpoints;
    the branches it skips hold no matching, so the order is unchanged."""
    stack: list[tuple[int, int]] = []
    chosen: list = []
    i = used = 0
    last = len(masks) - size  # the last index that leaves room for the rest
    while True:
        while i <= last and used & masks[i]:
            i += 1
        if i > last:
            if not stack:
                return
            i, used = stack.pop()
            chosen.pop()
            last -= 1
        elif len(chosen) == size - 1:
            yield (*chosen, labels[i])
        else:
            nxt = used | masks[i]
            if (lows[i + 1] & ~nxt).bit_count() >= size - 1 - len(chosen):
                stack.append((i, used))
                chosen.append(labels[i])
                used = nxt
                last += 1
        i += 1


def matching_profile_bruteforce(g: Graph) -> list[int]:
    """Independent oracle: every matching enumerated, size by size, with no
    memoization. Stops at the first size with no matching. Capped at 24 edges."""
    if g.num_edges > MAX_BRUTEFORCE_EDGES:
        raise CapExceeded(
            f"brute force is limited to {MAX_BRUTEFORCE_EDGES} edges, got {g.num_edges}")
    counts = [0] * (g.n // 2 + 1)
    for size in range(len(counts)):
        counts[size] = sum(1 for _ in enumerate_matchings(g, size))
        if not counts[size]:
            break
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


def frac_str(fr: Fraction) -> str:
    """An exact rational as "a/b", integers included, for JSON reports."""
    return f"{fr.numerator}/{fr.denominator}"


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
        return {
            "schema": 1,
            "ell": self.ell,
            "p": [[frac_str(v) for v in row] for row in self.p],
            "mu": [frac_str(v) for v in self.mu],
            "nu": [frac_str(v) for v in self.nu],
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


def _column_tables(cols, full: int):
    """Yield T_0, ..., T_k for the Y-columns cols (each a tuple of X-vertex
    bits): T_j maps a used-X mask A to the number of ways columns 0..j-1 are
    each unused or matched to a distinct x in A, covering A exactly.

    A state is dropped once an X-vertex outside it has no neighbour among the
    remaining columns, so at most 2^|X| states live in one table; each table
    is checked against the state cap.
    """
    cap = _state_cap()
    live = [0] * (len(cols) + 1)  # live[j]: X-vertices with a neighbour in cols[j:]
    for j in range(len(cols) - 1, -1, -1):
        live[j] = live[j + 1] | sum(cols[j])
    table = {0: 1}
    yield table
    for j, xbits in enumerate(cols, 1):
        alive = live[j]
        new: dict[int, int] = {}
        get = new.get
        for used, cnt in table.items():
            if used | alive == full:
                new[used] = get(used, 0) + cnt
            for bit in xbits:
                if not used & bit:
                    k = used | bit
                    if k | alive == full:
                        new[k] = get(k, 0) + cnt
        if len(new) > cap:
            raise CapExceeded(
                f"column state cap of {cap} exceeded: {len(new)} states at "
                f"column {j} of {len(cols)}; raise it with {STATE_CAP_ENV}")
        table = new
        yield table


def saturating_count(b: BipartiteGraph) -> int:
    """Number of X-saturating matchings of b (0 when there is none), from a
    DP over the Y-columns keyed by used-X masks; builds no engine."""
    full = (1 << b.size_x) - 1
    for table in _column_tables([tuple(1 << x for x in xs) for xs in b.adj_y], full):
        pass
    return table.get(full, 0)


def matching_marginals(b: BipartiteGraph) -> MarginalTable:
    """Exact rational marginals for the uniform ell-matching of b, ell = |X|.

    Requires ell <= size_y, so every ell-matching saturates X. With
    forward tables F_j over columns before y_j and backward tables G_{j+1}
    over columns after it, the matchings using edge (x, y_j) number
    sum over A of F_j(A) * G_{j+1}(X - A - {x}); p[x][y_j] is that over the total.
    """
    ell = b.size_x
    if ell > b.size_y:
        raise ValueError(f"need ell <= size_y (got {ell} > {b.size_y})")
    full = (1 << ell) - 1
    cols = [tuple(1 << x for x in xs) for xs in b.adj_y]
    forward = list(_column_tables(cols, full))
    total = forward[-1].get(full, 0)
    if total == 0:
        raise ValueError("graph has no X-saturating matching")
    p = [[Fraction(0)] * b.size_y for _ in range(ell)]
    mu = [Fraction(0)] * b.size_y  # mu[y] = sum of p[x][y] over x, summed as counts
    # the backward tables come G_M, G_{M-1}, ...: G_{j+1} meets column j
    for j, after in zip(range(b.size_y - 1, -1, -1), _column_tables(cols[::-1], full)):
        xs, bits = b.adj_y[j], cols[j]
        hits = [0] * len(xs)
        get = after.get
        for used, cnt in forward[j].items():
            rest = full ^ used
            for i, bit in enumerate(bits):
                if rest & bit:
                    hits[i] += cnt * get(rest ^ bit, 0)
        for x, h in zip(xs, hits):
            p[x][j] = Fraction(h, total)
        mu[j] = Fraction(sum(hits), total)
    nu = [1 - m for m in mu]
    return MarginalTable(ell=ell, p=p, mu=mu, nu=nu,
                         h_edge=[entropy_bits(row) for row in p])
