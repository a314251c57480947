"""Independent reference formulas and tiny helpers used as test oracles,
and the catalog of tiny bipartite instances the proof-lab tests run on.

These deliberately avoid the library's code paths: closed forms, explicit
enumerations, and (for graph6) networkx as an external reference encoder,
the encoder that packed each chunk bit by bit and the decoder that expanded
each character bit by bit. The seeded G(n, p) generator, the disjoint
union and the edge-list writer build test inputs; the library has no use
for them. The pairing generator on random.shuffle and the eager
sharp-family walk are the references for the library's own Fisher-Yates
and lazy walk.
The brute-force profile shares only the library's matching enumerator, the
dict-keyed column DP is the reference for the library's packed one, and the
greedy planner that rebuilds its candidates every step is the reference for
the engine's incremental one.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations

from matchbound import (BipartiteGraph, Graph, ParseError, enumerate_matchings,
                        saturating_count)

MAX_BRUTEFORCE_EDGES = 24
CATALOG_SEED = 20240911  # the seed the recorded prooflab reports were drawn from


def cycle_profile(n: int) -> list[int]:
    """Closed form for cycles: count[l] = n/(n-l) * C(n-l, l)."""
    out = [1]
    for l in range(1, n // 2 + 1):
        out.append(n * math.comb(n - l, l) // (n - l))
    return out


def kdd_count(d: int, l: int) -> int:
    return math.comb(d, l) ** 2 * math.factorial(l)


def matching_profile_bruteforce(g) -> list[int]:
    """Every matching enumerated, size by size, with no memoization. Stops
    at the first size with no matching. Meant for at most 24 edges."""
    assert g.num_edges <= MAX_BRUTEFORCE_EDGES, g.num_edges
    counts = [0] * (g.n // 2 + 1)
    for size in range(len(counts)):
        counts[size] = sum(1 for _ in enumerate_matchings(g, size))
        if not counts[size]:
            break
    return counts


def greedy_plan(g) -> list[tuple]:
    """The frontier DP's plan, (slot bit of v or 0, slot bits of its placed
    neighbours, keep mask) per step, from the greedy vertex order with the
    candidates rebuilt and ranked by a key function at every step: the next
    vertex is an unplaced neighbour of the frontier with the least net
    frontier growth, then the most placed neighbours, then the lowest index;
    with an empty frontier it is the lowest unplaced vertex."""
    adj = g.adj
    plan = []
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
        plan.append((vbit, tuple(ubits), ~done))
    return plan


def random_graph(n: int, p: float, seed) -> Graph:
    """Seeded Erdos-Renyi G(n, p)."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def disjoint_union(graphs) -> Graph:
    """Disjoint union with consecutive relabeling, in the given order."""
    graphs = list(graphs)
    total = sum(g.n for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(total, edges)


def emit_edge_list(g: Graph) -> str:
    """g in the "n m" header + "u v" lines format that parse_edge_list reads."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def random_regular_by_shuffle(n: int, d: int, seed) -> Graph:
    """The pairing generator that shuffled its stubs with random.shuffle,
    the reference for the library's Fisher-Yates on getrandbits."""
    rng = random.Random(seed)
    stubs0 = [v for v in range(n) for _ in range(d)]
    while True:
        stubs = stubs0[:]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return Graph(n, edges)


def sharp_family_by_descent(ell: int, m: int, limit: int) -> list[BipartiteGraph]:
    """The sharp family built from the list of every partition of ell into
    parts a with a*M/ell integral, sliced to `limit` afterwards: the walk the
    library's lazy one must reproduce, member for member."""
    parts_ok = [a for a in range(1, ell + 1) if (a * m) % ell == 0]
    partitions: list[list[int]] = []

    def descend(remaining: int, biggest: int, chosen: list[int]):
        if remaining == 0:
            partitions.append(list(chosen))
            return
        for a in parts_ok:
            if a <= biggest and a <= remaining:
                chosen.append(a)
                descend(remaining - a, a, chosen)
                chosen.pop()

    descend(ell, ell, [])
    instances = []
    for parts in partitions[:limit]:
        edges = []
        x_off = y_off = 0
        for a in parts:
            b_size = a * m // ell
            edges.extend((x_off + i, y_off + j) for i in range(a) for j in range(b_size))
            x_off += a
            y_off += b_size
        instances.append(BipartiteGraph(ell, m, edges))
    return instances


def emit_graph6_by_bits(g: Graph) -> str:
    """The graph6 encoder that preceded the one built on the decoder's pair
    order: the header by shifts, the bits by a (j, i) double loop, each
    six-bit chunk packed bit by bit."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph6 emitter supports n <= 258047")
    edge_set = set(g.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set else 0)
    chars = []
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for bit in chunk:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return head + "".join(chars)


def as_bipartite_by_lists(g: Graph):
    """The bipartite view that preceded the one-pass coloring: BFS colors
    (lowest vertex of each component 0), sorted X and Y lists, an index dict
    per side and an edge loop that orients each edge by which end is in X.
    None on an odd cycle or an empty side."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    x_side = [v for v in range(g.n) if color[v] == 0]
    y_side = [v for v in range(g.n) if color[v] == 1]
    if not x_side or not y_side:
        return None
    x_index = {v: i for i, v in enumerate(x_side)}
    y_index = {v: i for i, v in enumerate(y_side)}
    edges = []
    for u, v in g.edges:
        if u in x_index:
            edges.append((x_index[u], y_index[v]))
        else:
            edges.append((x_index[v], y_index[u]))
    return BipartiteGraph(len(x_side), len(y_side), edges)


def parse_graph6_by_bits(text: str) -> Graph:
    """The graph6 decoder that preceded the table-driven one: each body
    character checked and expanded into six bits in turn, each bit matched to
    its (i, j) pair in a double loop. Same errors, same messages."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    if ord(s[0]) == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise ParseError("8-byte graph6 sizes (n > 258047) not supported")
        if len(s) < 4:
            raise ParseError("truncated graph6 size header")
        n = 0
        for ch in s[1:4]:
            val = ord(ch) - 63
            if not 0 <= val < 64:
                raise ParseError(f"invalid character {ch!r} in graph6 size")
            n = (n << 6) | val
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ParseError(f"invalid graph6 size character {s[0]!r}")
        body = s[1:]
    if n == 0:
        raise ParseError("graph6 string encodes an empty graph (n=0)")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ParseError(
            f"graph6 body length {len(body)} does not match n={n} (expected {expected})")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"invalid character {ch!r} in graph6 body")
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


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


def column_tables(cols, full: int):
    """Yield T_0, ..., T_k for the Y-columns cols (each a tuple of X-vertex
    bits): T_j maps a used-X mask A to the number of ways columns 0..j-1 are
    each unused or matched to a distinct x in A, covering A exactly.

    A state is dropped once an X-vertex outside it has no neighbour among the
    remaining columns. The dict-keyed column DP the library used before its
    packed tables, kept uncapped as their reference.
    """
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
        table = new
        yield table


def saturating_count_by_dicts(b: BipartiteGraph) -> int:
    """The number of X-saturating matchings from column_tables."""
    full = (1 << b.size_x) - 1
    for table in column_tables([tuple(1 << x for x in xs) for xs in b.adj_y], full):
        pass
    return table.get(full, 0)


def marginal_hits_by_dicts(b: BipartiteGraph) -> tuple[list[list[int]], int]:
    """(hits, total) from column_tables: hits[x][y] counts the X-saturating
    matchings that use edge (x, y), as sum over A of F_y(A) * G_{y+1}(X - A - x)
    with forward tables F and backward tables G; total counts them all."""
    full = (1 << b.size_x) - 1
    cols = [tuple(1 << x for x in xs) for xs in b.adj_y]
    forward = list(column_tables(cols, full))
    hits = [[0] * b.size_y for _ in range(b.size_x)]
    # the backward tables come G_M, G_{M-1}, ...: G_{j+1} meets column j
    for j, after in zip(range(b.size_y - 1, -1, -1), column_tables(cols[::-1], full)):
        get = after.get
        for used, cnt in forward[j].items():
            rest = full ^ used
            for x in b.adj_y[j]:
                if rest >> x & 1:
                    hits[x][j] += cnt * get(rest ^ 1 << x, 0)
    return hits, forward[-1].get(full, 0)


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


def count_pair_decompositions(items, ell: int) -> int:
    """Number of ordered pairs of ell-matchings whose multiset union is the
    pattern given by its ((u, v), multiplicity) items, by direct assignment
    enumeration (the fiber of the union map). An independent count:
    verify_fibers measures pair fibers by enumerating the pairs themselves."""
    singles = []
    doubles = []
    for (u, v), m in items:
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


def tiny_bipartite_catalog() -> list[tuple[BipartiteGraph, int]]:
    """Instances for the proof-lab tests: every connectivity pattern with
    |X| = 2 and M <= 4 (no isolated vertices, at least one X-saturating
    matching), plus random instances up to the enumeration caps, drawn from
    CATALOG_SEED."""
    instances = []
    for m in (2, 3, 4):
        pairs = [(x, y) for x in range(2) for y in range(m)]
        for bits in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            cand = BipartiteGraph(2, m, edges)
            if min(cand.degrees_x) < 1 or min(len(a) for a in cand.adj_y) < 1:
                continue
            if saturating_count(cand) > 0:
                instances.append((cand, 2))
    rng = random.Random(CATALOG_SEED)
    for ell, m, wanted in ((3, 4, 8), (3, 5, 8), (4, 5, 8)):
        got = 0
        while got < wanted:
            edges = [(x, y) for x in range(ell) for y in range(m)
                     if rng.random() < 0.55]
            try:
                cand = BipartiteGraph(ell, m, edges)
            except ValueError:
                continue
            if min(cand.degrees_x) < 1 or min(len(a) for a in cand.adj_y) < 1:
                continue
            if saturating_count(cand) > 0:
                instances.append((cand, ell))
                got += 1
    return instances
