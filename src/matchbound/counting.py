"""Exact matching profiles and matching marginals.

All counts are arbitrary-precision integers; marginals are exact rationals.
Logs happen only at the bounds layer.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import itemgetter, mul

from .errors import CapExceeded
from .graphs import BipartiteGraph, Graph

STATE_CAP_ENV = "MATCHBOUND_STATE_CAP"
DEFAULT_STATE_CAP = 1 << 20
# the readings of bounds.phi_wild's second term, the first the default; stated
# here, not in bounds, so that the CLI builds its parser without loading bounds
PHI_READINGS = ("gamma", "literal")


def _state_cap() -> int:
    env = os.environ.get(STATE_CAP_ENV)
    try:
        cap = int(env) if env else DEFAULT_STATE_CAP
    except ValueError:
        raise ValueError(f"{STATE_CAP_ENV} must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"{STATE_CAP_ENV} must be at least 1, got {env!r}")
    return cap


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

    The number of live states is capped by MATCHBOUND_STATE_CAP; `memo` is
    a range as long as the widest frontier table of the last sweep.
    """

    __slots__ = ("n", "shift", "plan", "cap", "memo")

    def __init__(self, g: Graph):
        adj = g.adj
        self.n = g.n
        self.shift = g.num_edges + 1
        self.cap = _state_cap()
        self.memo = range(1)
        # per step: (slot bit of v or 0, slot bits of its placed neighbours, keep mask)
        self.plan = []
        n, deg = g.n, [len(a) for a in adj]
        left = deg[:]  # unplaced neighbours of each vertex
        rest = [sum(a) for a in adj]  # their index sum: the last one, once left is 1
        closes = [0] * n  # placed neighbours whose last unplaced neighbour it is
        placed = [False] * n
        slot: dict[int, int] = {}  # frontier vertex -> its slot bit
        cands: set[int] = set()  # unplaced neighbours of the frontier
        used = start = 0  # every vertex before start is placed
        for _ in range(n):
            if cands:  # net frontier growth, most placed neighbours, index, as one int
                v = min([(((left[c] > 0) - closes[c]) * n + left[c] - deg[c]) * n + c
                         for c in cands]) % n
                cands.remove(v)
            else:
                v = start = placed.index(False, start)
            placed[v] = True
            ubits, done = [], 0
            for u in adj[v]:
                left[u] -= 1
                rest[u] -= v
                if u in slot:
                    ubits.append(slot[u])
                    if left[u] == 1:
                        closes[rest[u]] += 1
                    elif not left[u]:
                        done |= slot.pop(u)
                else:
                    cands.add(u)
                    closes[u] += left[v] == 1  # u is v's last unplaced neighbour
            used &= ~done
            vbit = 0
            if left[v]:
                vbit = slot[v] = ~used & (used + 1)
                used |= vbit
            self.plan.append((vbit, tuple(ubits), ~done))

    def profile(self) -> list[int]:
        """[count of 0-matchings, ..., count of floor(n/2)-matchings]."""
        shift, cap, n = self.shift, self.cap, self.n
        table, self.memo = {0: 1}, range(1)
        for i, (vbit, ubits, keep) in enumerate(self.plan):
            # when v forgets no vertex, its unmatched move merges no states
            new = {key | vbit: val for key, val in table.items()} if keep == -1 else {}
            get = new.get
            if keep != -1:
                for key, val in table.items():
                    k = (key & keep) | vbit
                    new[k] = get(k, 0) + val
            for ub in ubits:
                for key, val in table.items():
                    if key & ub:
                        k = (key ^ ub) & keep
                        new[k] = get(k, 0) + (val << shift)
            if len(new) > cap:
                raise CapExceeded(
                    f"frontier state cap of {cap} exceeded: {len(new)} states at "
                    f"sweep step {i + 1} of {n}; raise it with {STATE_CAP_ENV}")
            if len(new) > len(self.memo):
                self.memo = range(len(new))
            table = new
        packed, mask = table[0], (1 << shift) - 1
        return [(packed >> (k * shift)) & mask for k in range(n // 2 + 1)]


def matching_profile(g: Graph) -> list[int]:
    """Exact profile [count of 0-matchings, ..., count of floor(n/2)-matchings]."""
    return MaskProfiler(g).profile()


def enumerate_matchings(g: Graph, size: int, labels=None, start=()):
    """Yield every matching of exactly `size` edges, in lexicographic order of
    edge indices, as start + labels[i] + ... over its edges, each label taken
    as a 1-tuple when start is a tuple: by default the tuple of its edges. The
    one matching enumerator of the package."""
    if size < 0:
        raise ValueError(f"matching size must be non-negative, got {size}")
    masks = [(1 << u) | (1 << v) for u, v in g.edges]
    # lows[i]: the lower endpoints of edges i.. (edges are sorted by them)
    lows = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        lows[i] = lows[i + 1] | 1 << g.edges[i][0]
    labels = g.edges if labels is None else labels
    if isinstance(start, tuple):
        labels = [(label,) for label in labels]
    return _walk(masks, lows, labels, size, start) if size else iter([start])


def _walk(masks, lows, labels, size: int, fold):
    """Depth-first walk over edge indices with an explicit stack of (index,
    used-vertex mask, fold) before each chosen edge. It descends into an edge
    only if enough unused lower endpoints of later edges remain for the rest,
    since the edges of a matching have distinct lower endpoints; the branches
    it skips hold no matching, so the order is unchanged."""
    stack: list[tuple] = []
    i = used = 0
    last = len(masks) - size  # the last index that leaves room for the rest
    while True:
        while i <= last and used & masks[i]:
            i += 1
        if i > last:
            if not stack:
                return
            i, used, fold = stack.pop()
            last -= 1
        elif len(stack) == size - 1:
            yield fold + labels[i]
        else:
            nxt = used | masks[i]
            if (lows[i + 1] & ~nxt).bit_count() >= size - 1 - len(stack):
                stack.append((i, used, fold))
                fold = fold + labels[i]  # a new value: the stack keeps the old one
                used = nxt
                last += 1
        i += 1


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
    """Exact profile of the disjoint union of t = n/(2d) copies of K_{d,d}:
    the coefficients c of P^t, P = kdd_profile(d), by J. C. P. Miller's
    power recurrence k * c_k = sum_{j=1..d} ((t+1)j - k) p_j c_{k-j},
    c_0 = 1 (p_0 = 1), whose division by k is exact."""
    if d < 1:
        raise ValueError("degree must be positive")
    if n_vertices % (2 * d) != 0:
        raise ValueError(f"2d = {2 * d} must divide N = {n_vertices}")
    p = kdd_profile(d)[1:]
    jp = [j * pj for j, pj in enumerate(p, 1)]
    t1 = n_vertices // (2 * d) + 1
    prof = [1]
    for k in range(1, n_vertices // 2 + 1):
        last = prof[:-d - 1:-1]  # c_{k-1}, ..., c_{k-d}
        prof.append((t1 * sum(map(mul, jp, last)) - k * sum(map(mul, p, last))) // k)
    return prof


def profile_to_json(counts) -> str:
    """Counts as decimal strings so arbitrary precision survives round-trip."""
    return json.dumps({"schema": 1, "counts": [str(c) for c in counts]})


def frac_str(fr: Fraction) -> str:
    """An exact rational as "a/b", integers included, for JSON reports."""
    return f"{fr.numerator}/{fr.denominator}"


class MarginalTable:
    """Exact edge marginals of the uniform random X-saturating matching.

    hits[x][y] counts the X-saturating matchings that pair x with y, out of
    total. p[x][y] = hits[x][y] / total, mu[y] is the probability y is covered,
    nu[y] = 1 - mu[y], and h_edge[x] is the entropy (bits) of x's partner.
    The rationals are built when first read.
    """

    def __init__(self, ell: int, hits: list[list[int]], total: int):
        self.ell = ell
        self.hits = hits
        self.total = total

    @cached_property
    def p(self) -> list[list[Fraction]]:
        from fractions import Fraction
        return [[Fraction(c, self.total) for c in row] for row in self.hits]

    @cached_property
    def mu(self) -> list[Fraction]:
        from fractions import Fraction
        return [Fraction(sum(col), self.total) for col in zip(*self.hits)]

    @cached_property
    def nu(self) -> list[Fraction]:
        return [1 - m for m in self.mu]

    @cached_property
    def h_edge(self) -> list[float]:
        # c / total is correctly rounded, so it is float(Fraction(c, total))
        return [entropy_bits(c / self.total for c in row) for row in self.hits]

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


# The column DP. The X-vertices split into connected components, joined
# through shared columns; a matching of b is one matching of each, so each
# runs its own DP. Table T_j of a component with X-vertices X_c counts, for
# each used set A of X_c, the ways its columns 0..j-1 are each unused or
# matched to a distinct x in A, covering A exactly. T_j is one int with
# 2^|X_c| slots of W bits, slot A at bits [A*W, (A+1)*W), where bit i of A
# is the i-th vertex of X_c. No entry or hit count exceeds
# prod_{x in X_c} d_x < 2^W, the largest such product fixing W, so slots
# never carry into each other, and a column with X-neighbours xs adds to T,
# for each x in xs with bit i, the slots lacking bit i shifted up by 2^i
# slots. A backward table is the same DP over the columns taken from the
# last one down.

@lru_cache(maxsize=16)
def _lacking(size_x: int, width: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Per bit x of a slot index, the table mask of the slots whose index
    lacks bit x, and two getters that take those slots from a list of
    slots, in ascending and in descending index order. Slot A lacking x
    meets slot X - A - x, and as A ascends over the slots lacking x,
    X - A - x descends over the same slots."""
    masks, pickers = [], []
    for x in range(size_x):
        run = width << x >> 3  # bytes: 2^x slots lack x, then 2^x slots have it
        block = b"\xff" * run + bytes(run)
        masks.append(int.from_bytes(block * (1 << (size_x - x - 1)), "little"))
        lack = [i for i in range(1 << size_x) if not i >> x & 1]
        pickers.append((_getter(lack), _getter(lack[::-1])))
    return tuple(masks), tuple(pickers)


def _getter(idx: list[int]):
    # itemgetter of a single index would return the bare item
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


def _columns(b: BipartiteGraph):
    """Split b into its connected components and check the largest one's
    2^|X_c| slots against the state cap, before any table is built.
    Return, per component, its X-vertices and its columns; the place i of
    each X-vertex in its component, which is its bit in the component's
    tables; the slot width W of every table; and the step that adds a
    column to a table of its component. A sweep from either end runs the
    same step.

    The search places X-vertices in the order it meets them. An isolated
    X-vertex is a component with no column; a column with no X-neighbour
    is in none.
    """
    size_x, adj_x, adj_y = b.size_x, b.adj_x, b.adj_y
    place = [-1] * size_x  # i for the i-th X-vertex of its component; -1: not met
    seen = [False] * b.size_y
    parts = []
    for start in range(size_x):
        if place[start] < 0:
            place[start] = 0
            xs, ys = [start], []
            for x in xs:  # xs grows as the search meets new X-vertices
                for y in adj_x[x]:
                    if not seen[y]:
                        seen[y] = True
                        ys.append(y)
                        for z in adj_y[y]:
                            if place[z] < 0:
                                place[z] = len(xs)
                                xs.append(z)
                        if len(xs) == size_x:
                            break
                if len(xs) == size_x:  # every X-vertex met: b is connected
                    ys = [y for y, col in enumerate(adj_y) if col]
                    break
            parts.append((xs, ys))
    cap, largest = _state_cap(), max(len(xs) for xs, _ys in parts)
    if 1 << largest > cap:
        raise CapExceeded(
            f"column state cap of {cap} exceeded: 2^{largest} states at "
            f"column 0 of {b.size_y}; raise it with {STATE_CAP_ENV}")
    most = max(math.prod(map(len, map(adj_x.__getitem__, xs))) for xs, _ys in parts)
    width = 64 * ((max(most, 1).bit_length() + 63) // 64)
    # the masks for the largest component serve all: a smaller table's slots
    # are the masks' low slots, and bit i lacks in the same pattern there
    lacking = _lacking(largest, width)[0]
    lack_of = [lacking[i] for i in place]
    shift_of = [width << i for i in place]

    def step(table: int, xs) -> int:
        new = table
        for x in xs:
            new += (table & lack_of[x]) << shift_of[x]
        return new
    return parts, place, width, step


def _limbs(table: int, nbytes: int, limbs: int) -> list[list[int]]:
    """The slots of a table as 64-bit words, one list per limb of a slot."""
    words = memoryview(table.to_bytes(nbytes, "little")).cast("Q")
    if sys.byteorder == "big":
        words = array("Q", words)
        words.byteswap()
    return [words[a::limbs].tolist() for a in range(limbs)]


def saturating_count(b: BipartiteGraph) -> int:
    """Number of X-saturating matchings of b (0 when there is none): the
    product of its components' counts, each from a DP over the
    component's columns on packed tables; builds no engine."""
    parts, _place, width, step = _columns(b)
    count = 1
    for xs, ys in parts:
        table = reduce(step, map(b.adj_y.__getitem__, ys), 1)
        count *= table >> width * ((1 << len(xs)) - 1)  # slot A = X_c
        if not count:
            break
    return count


def matching_marginals(b: BipartiteGraph) -> MarginalTable:
    """Exact rational marginals for the uniform ell-matching of b, ell = |X|.

    Requires ell <= size_y, so every ell-matching saturates X. With
    forward tables F_j over columns before y_j and backward tables G_{j+1}
    over columns after it, the matchings using edge (x, y_j) number
    sum over A of F_j(A) * G_{j+1}(X - A - {x}); p[x][y_j] is that over the total.
    """
    if b.size_x > b.size_y:
        raise ValueError(f"need ell <= size_y, got {b.size_x} > {b.size_y}")
    table = _marginal_table(b)
    if table is None:
        raise ValueError("graph has no X-saturating matching")
    return table


def _marginal_table(b: BipartiteGraph) -> MarginalTable | None:
    """The marginals of b, ell = |X| <= size_y, from one forward and one
    backward sweep per component, or None when b has no X-saturating
    matching; the table's total is that count. A matching of b is one
    matching of each component, so the hits of a component's edges are
    scaled by the product of the other components' totals."""
    parts, place, width, step = _columns(b)
    hits = [[0] * b.size_y for _ in range(b.size_x)]
    totals = []
    for xs, ys in parts:
        totals.append(_component_hits(b.adj_y, xs, ys, place, width, step, hits))
        if not totals[-1]:
            return None
    total = math.prod(totals)
    for (xs, ys), part_total in zip(parts, totals):
        if part_total != total:
            scale = total // part_total
            for x in xs:
                row = hits[x]
                for y in ys:
                    row[y] *= scale
    return MarginalTable(ell=b.size_x, hits=hits, total=total)


def _component_hits(adj_y, xs, ys, place, width, step, hits) -> int:
    """Fill hits[x][y], for the x and y of one component, with the count of
    the component's X-saturating matchings that pair x with y, and return
    their total.

    A table that has taken one column holds 1 at the empty set and at that
    column's singletons, and one that has taken none holds 1 at the empty
    set alone, so the hits of the last column and of the columns next to
    either end are a few slots of the other table. Every saturating
    matching pairs x with one column, so a row sums to the total and the
    first column's hits are what the other columns leave of it. Only the
    other inner columns take dot products, and a column with the
    X-neighbours of one already done takes its hits: swapping the two
    columns maps the matchings through one onto those through the other.
    """
    cols = [adj_y[y] for y in ys]
    full = (1 << len(xs)) - 1
    forward = list(accumulate(cols, step, initial=1))
    total = forward[-1] >> width * full
    if not total:
        return 0
    slot, last = (1 << width) - 1, len(cols) - 1

    def read(table: int, ends, x: int) -> int:
        # pair table(A) for A = X - x - S with S empty or a singleton of ends
        rest = full ^ 1 << place[x]
        return (table >> width * rest & slot) + sum(
            table >> width * (rest ^ 1 << place[z]) & slot for z in ends if z != x)

    for x in cols[last]:
        hits[x][ys[last]] = read(forward[last], (), x)
    nbytes, limbs = width << len(xs) >> 3, width >> 6
    pickers = _lacking(len(xs), width)[1]
    done = {cols[last]: ys[last]}  # X-neighbours -> the column whose hits are done
    after = 1  # G(empty) = 1
    for j in range(last - 1, 0, -1):
        after = step(after, cols[j + 1])
        y, twin = ys[j], done.setdefault(cols[j], ys[j])
        if twin != y:
            for x in cols[j]:
                hits[x][y] = hits[x][twin]
        elif j == last - 1 or j == 1:
            table, ends = (forward[j], cols[last]) if j == last - 1 else (after, cols[0])
            for x in cols[j]:
                hits[x][y] = read(table, ends, x)
        else:
            f, g = _limbs(forward[j], nbytes, limbs), _limbs(after, nbytes, limbs)
            for a, fa in enumerate(f):
                for c, gc in enumerate(g):
                    for x in cols[j]:
                        # pair F(A) for A lacking x with G(X - A - x)
                        up, down = pickers[place[x]]
                        hits[x][y] += sum(map(mul, up(fa), down(gc))) << 64 * (a + c)
    if last:
        for x in cols[0]:
            hits[x][ys[0]] = total - sum(hits[x])
    return total
