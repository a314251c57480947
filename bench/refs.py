"""Reference computations and output checks for the benchmark.

Everything here is written independently of `matchbound` and uses only the
standard library, so a fault in the program cannot hide itself by being
reused as its own reference. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math

TOL = 1e-9
PROVEN_BOUNDS = ("cgt", "dregular", "general", "bregman", "bipartite")


# ---------------------------------------------------------------------------
# independent counts
# ---------------------------------------------------------------------------

def profile_by_edge_subsets(n: int, edges) -> list[int]:
    """Matching profile of a general graph by enumerating every edge subset
    that is a matching (edges taken in increasing index order)."""
    masks = [(1 << u) | (1 << v) for u, v in edges]
    counts = [0] * (n // 2 + 1)
    counts[0] = 1
    stack = [(0, 0, 0)]
    while stack:
        start, used, size = stack.pop()
        for i in range(start, len(masks)):
            if not used & masks[i]:
                counts[size + 1] += 1
                stack.append((i + 1, used | masks[i], size + 1))
    return counts


def bipartite_profile(size_x: int, size_y: int, edges) -> list[int]:
    """Matching profile of a bipartite graph by a subset DP over the columns:
    rows are added one at a time, and the set of used columns alone fixes
    the matching's size, so one integer per column set suffices."""
    adj = [[] for _ in range(size_x)]
    for x, y in edges:
        adj[x].append(1 << y)
    ways = {0: 1}
    for row in adj:
        nxt = dict(ways)
        for used, count in ways.items():
            for bit in row:
                if not used & bit:
                    key = used | bit
                    nxt[key] = nxt.get(key, 0) + count
        ways = nxt
    counts = [0] * ((size_x + size_y) // 2 + 1)
    for used, count in ways.items():
        counts[used.bit_count()] += count
    return counts


def kdd_union_profile(d: int, copies: int) -> list[int]:
    """Closed form for `copies` disjoint K_{d,d}: the convolution power of
    C(d, l)^2 * l!."""
    block = [math.comb(d, l) ** 2 * math.factorial(l) for l in range(d + 1)]
    out = [1]
    for _ in range(copies):
        conv = [0] * (len(out) + d)
        for i, a in enumerate(out):
            for j, b in enumerate(block):
                conv[i + j] += a * b
        out = conv
    return out


# ---------------------------------------------------------------------------
# output parsers
# ---------------------------------------------------------------------------

def parse_count_table(text: str) -> list[int]:
    """The rows "ell count" printed by `matchbound count`."""
    counts = []
    for ell, line in enumerate(text.splitlines()):
        idx, value = line.split()
        if int(idx) != ell:
            raise ValueError(f"row {ell} is labelled {idx}")
        counts.append(int(value))
    return counts


def strip_runtime(text: str) -> str:
    """A campaign report without its only non-deterministic field."""
    doc = json.loads(text)
    doc.pop("runtimeSeconds", None)
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_profile(counts, n: int, edges) -> list[str]:
    """c0 = 1, c1 = |E|, c2 = C(|E|,2) - sum_v C(d_v,2), the full length,
    and Newton's inequalities for the real-rooted matching generating
    polynomial (Heilmann-Lieb)."""
    problems = []
    if len(counts) != n // 2 + 1:
        problems.append(f"profile has {len(counts)} entries, expected {n // 2 + 1}")
        return problems
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    m = len(edges)
    if counts[0] != 1:
        problems.append(f"c0 = {counts[0]}")
    if n >= 2 and counts[1] != m:
        problems.append(f"c1 = {counts[1]}, expected {m}")
    c2 = math.comb(m, 2) - sum(math.comb(d, 2) for d in deg)
    if n >= 4 and counts[2] != c2:
        problems.append(f"c2 = {counts[2]}, expected {c2}")
    top = max(k for k, c in enumerate(counts) if c)
    if any(c <= 0 for c in counts[:top + 1]):
        problems.append("internal zero in the profile")
    for k in range(1, top):
        lhs = counts[k] ** 2 * math.comb(top, k - 1) * math.comb(top, k + 1)
        rhs = counts[k - 1] * counts[k + 1] * math.comb(top, k) ** 2
        if lhs < rhs:
            problems.append(f"Newton's inequality fails at k = {k}")
    return problems


def check_cover_profile(cover_counts, base_counts) -> list[str]:
    """c_{2l}(cover) >= c_l(G)^2 for every l."""
    return [f"cover count below the square at l = {ell}"
            for ell, c in enumerate(base_counts)
            if 2 * ell < len(cover_counts) and cover_counts[2 * ell] < c * c]


def check_bound_table(text: str, profile) -> list[str]:
    """Every proven bound has slack >= -1e-9 and exactCount matches."""
    problems = []
    doc = json.loads(text)
    for rep in doc["reports"]:
        ell = rep["ell"]
        if rep["exactCount"] != str(profile[ell]):
            problems.append(f"exactCount at l = {ell} is {rep['exactCount']}, "
                            f"expected {profile[ell]}")
        for entry in rep["entries"]:
            if entry["name"] in PROVEN_BOUNDS and entry["applicable"]:
                slack = entry["slackBits"]
                if slack is None or slack < -TOL:
                    problems.append(f"{entry['name']} bound at l = {ell} has slack {slack}")
    if [rep["ell"] for rep in doc["reports"]] != list(range(len(profile))):
        problems.append("bound table does not cover every l")
    return problems


def check_campaign(text: str, samples: int, conjecture: str, family: str) -> list[str]:
    """Instance count, sharp-family tightness, and the umc worst slack."""
    problems = []
    doc = json.loads(text)
    if doc["instances"] != samples:
        problems.append(f"{doc['instances']} instances for {samples} samples")
    worst = doc["worstSlackBits"]
    if len(worst) != samples:
        problems.append(f"{len(worst)} worst slacks for {samples} samples")
    if family == "sharp":
        problems.extend(f"sharp-family slack {s}" for s in worst
                        if s is None or abs(s) >= TOL)
    if conjecture == "umc" and not doc["violations"]:
        problems.extend(f"umc worst slack {s} without a violation" for s in worst
                        if s != 0.0)
    return problems


def check_fibers(text: str, count: int, cover_count: int) -> list[str]:
    problems = []
    doc = json.loads(text)
    if not doc["passed"]:
        problems.append("fiber audit failed")
    totals = doc["totals"]
    if totals["countSquared"] != str(count * count):
        problems.append(f"countSquared {totals['countSquared']}, expected {count * count}")
    if totals["coverCount"] != str(cover_count):
        problems.append(f"coverCount {totals['coverCount']}, expected {cover_count}")
    return problems


def check_prooflab(text: str, saturating: int) -> list[str]:
    problems = []
    doc = json.loads(text)
    chain = doc["chain"]
    if not chain["passed"]:
        problems.append("inequality chain failed")
    values = [c["valueBits"] for c in chain["checkpoints"]]
    if any(values[i] > values[i + 1] + TOL for i in range(len(values) - 1)):
        problems.append("inequality chain decreases")
    if chain["checkpoints"][0]["label"] != "exact-entropy" \
            or values[0] != math.log2(saturating):
        problems.append(f"exact-entropy {values[0]}, expected log2({saturating})")
    problems.extend(f"size distribution of x = {a['x']} failed"
                    for a in doc["sizeDistributions"] if not a["passed"])
    problems.extend(f"r_k formula of x = {a['x']} failed"
                    for a in doc["availabilityFormulas"] if not a["passed"])
    return problems
