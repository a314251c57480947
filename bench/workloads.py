"""Seeded inputs and operation lists for the three workloads.

The benchmark draws its own graphs from its seed and writes them as text,
so the program's generators never decide what is measured. Every size below
is fixed; the seed only changes the structure of the graphs, which keeps
the cost of one pass close to the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import refs

# the fiber audit's caps, as the program documents them
FIBER_COUNT_CAP = 10_000
FIBER_COVER_CAP = 100_000
# a pass must hold enough operations for op_tail_s to have ten beyond it
MIN_OPS_PER_PASS = 40


@dataclass
class Input:
    path: str
    fmt: str
    text: str


@dataclass
class Op:
    argv: list[str]
    kind: str
    check: Callable[[str, Callable], list[str]]
    samples: int = 0


@dataclass
class Workload:
    name: str
    inputs: list[Input] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the benchmark's own generators and encoders
# ---------------------------------------------------------------------------

def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform d-regular simple graph by the pairing model with restarts."""
    stubs0 = [v for v in range(n) for _ in range(d)]
    while True:
        stubs = stubs0[:]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = sorted(stubs[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            return sorted(edges)


def gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """m distinct edges drawn uniformly: G(n, p) with its edge count fixed."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return sorted(rng.sample(pairs, m))


def double_cover_edges(edges) -> list[tuple[int, int]]:
    return sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])


def graph6_text(n: int, edges) -> str:
    edge_set = set(edges)
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body + "\n"


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def bipartite_text(size_x: int, size_y: int, edges) -> str:
    return f"B {size_x} {size_y} {len(edges)}\n" + "".join(f"{x} {y}\n" for x, y in edges)


def tiny_bipartite_edges(ell: int, m: int, n_edges: int, saturating: int,
                         rng: random.Random, draws: int = 100_000):
    """A bipartite graph with |X| = ell, |Y| = m, n_edges edges, no isolated
    vertex and exactly `saturating` X-saturating matchings."""
    pairs = [(x, y) for x in range(ell) for y in range(m)]
    for _ in range(draws):
        edges = sorted(rng.sample(pairs, n_edges))
        if {x for x, _ in edges} != set(range(ell)) or {y for _, y in edges} != set(range(m)):
            continue
        if refs.bipartite_profile(ell, m, edges)[ell] == saturating:
            return edges
    raise ValueError(f"no {ell}x{m} graph with {n_edges} edges and {saturating} "
                     f"saturating matchings in {draws} draws")


# ---------------------------------------------------------------------------
# checks bound to their references
# ---------------------------------------------------------------------------

def _count_check(n: int, edges, expected=None, base=None):
    def check(text, _run):
        counts = refs.parse_count_table(text)
        problems = refs.check_profile(counts, n, edges)
        if expected is not None and counts != expected:
            problems.append("profile differs from the reference")
        if base is not None:
            problems += refs.check_cover_profile(counts, base)
        return problems
    return check


def _bounds_check(n: int, edges, path: str):
    def check(text, run):
        counts = refs.parse_count_table(run(["count", "--graph", path]))
        return refs.check_profile(counts, n, edges) + refs.check_bound_table(text, counts)
    return check


def _campaign_check(samples: int, conjecture: str, family: str):
    return lambda text, _run: refs.check_campaign(text, samples, conjecture, family)


def _fiber_check(count: int, cover_count: int):
    return lambda text, _run: refs.check_fibers(text, count, cover_count)


def _prooflab_check(saturating: int):
    return lambda text, _run: refs.check_prooflab(text, saturating)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _add_input(w: Workload, workdir: Path, name: str, fmt: str, text: str) -> str:
    path = str(workdir / name)
    w.inputs.append(Input(path, fmt, text))
    return path


def regular(seed: int, workdir: Path) -> Workload:
    """count on 4-regular n=18 and cubic n=22 graphs (graph6) and on double
    covers of cubic n=10 graphs (bipartite), one relabelled union of four
    K_{4,4}, and bounds --ell all --json on 4-regular n=14 and cubic n=16."""
    rng = random.Random(f"regular/{seed}")
    w = Workload("regular")
    for i, (n, d) in enumerate([(18, 4)] * 60 + [(22, 3)] * 24):
        edges = random_regular_edges(n, d, rng)
        path = _add_input(w, workdir, f"reg{i:03d}.g6", "g6", graph6_text(n, edges))
        w.ops.append(Op(["count", "--graph", path], f"count-{d}reg", _count_check(n, edges)))
    n = 10
    for i in range(24):
        base_edges = random_regular_edges(n, 3, rng)
        cover = double_cover_edges(base_edges)
        flat = sorted((x, n + y) for x, y in cover)
        path = _add_input(w, workdir, f"cover{i:03d}.bip", "bipartite",
                          bipartite_text(n, n, cover))
        w.ops.append(Op(["count", "--graph", path], "count-cover", _count_check(
            2 * n, flat, expected=refs.bipartite_profile(n, n, cover),
            base=refs.profile_by_edge_subsets(n, base_edges))))
    d, copies = 4, 4
    n = 2 * d * copies
    label = list(range(n))
    rng.shuffle(label)
    union = sorted(tuple(sorted((label[2 * d * c + x], label[2 * d * c + d + y])))
                   for c in range(copies) for x in range(d) for y in range(d))
    path = _add_input(w, workdir, "kdd.edges", "edges", edge_list_text(n, union))
    w.ops.append(Op(["count", "--graph", path], "count-kdd",
                    _count_check(n, union, expected=refs.kdd_union_profile(d, copies))))
    for i, (n, d) in enumerate([(14, 4)] * 12 + [(16, 3)] * 6):
        edges = random_regular_edges(n, d, rng)
        path = _add_input(w, workdir, f"bnd{i:03d}.edges", "edges", edge_list_text(n, edges))
        w.ops.append(Op(["bounds", "--graph", path, "--ell", "all", "--json"],
                        f"bounds-{d}reg", _bounds_check(n, edges, path)))
    rng.shuffle(w.ops)
    return w


# (conjecture, family, flags, shards, samples per shard); the sharp shards
# take the family's first 5, 4, ..., 1 members
CAMPAIGN_SHARDS = [
    ("umc", "random", ["--N", "24", "--d", "3"], 14, 3),
    ("genminc", "random", ["--ell", "8", "--M", "12"], 2, 2),
    ("wild", "random", ["--ell", "6", "--M", "9"], 20, 6),
    ("genminc", "sharp", ["--ell", "8", "--M", "12"], 5, 0),
    ("wild", "sharp", ["--ell", "8", "--M", "12"], 5, 0),
]
SHARP_FAMILY_SIZE = 5  # partitions of 8 into parts a with 12a/8 integral


def campaign(seed: int, workdir: Path) -> Workload:
    """campaign shards: each covers consecutive sample indices of one
    seeded campaign; sharp-family shards take the first k family members."""
    rng = random.Random(f"campaign/{seed}")
    w = Workload("campaign")
    for conjecture, family, flags, shards, per_shard in CAMPAIGN_SHARDS:
        base = rng.randrange(10 ** 6)
        for j in range(shards):
            samples = per_shard or SHARP_FAMILY_SIZE - j
            argv = ["campaign", "--conjecture", conjecture, *flags,
                    "--samples", str(samples), "--seed", str(base + j * samples)]
            if family == "sharp":
                argv += ["--family", "sharp"]
            w.ops.append(Op(argv, f"{conjecture}-{family}",
                            _campaign_check(samples, conjecture, family), samples))
    rng.shuffle(w.ops)
    return w


# the densities of the repository's own fiber-audit acceptance test; denser
# graphs put most of a pass into one graph's near-cap cover enumeration
FIBER_DENSITIES = (0.2, 0.25, 0.3)
FIBER_GRAPHS_PER_DENSITY = 3
# (|X| = ell, |Y|, edges, X-saturating matchings, instances): the audits
# enumerate every saturating matching in every order, so their count fixes
# an audit's size the way the edge count fixes a fiber audit's
PROOFLAB_SHAPES = [(2, 2, 3, 1, 2), (2, 3, 4, 3, 2), (2, 4, 5, 5, 2), (3, 4, 8, 6, 3),
                   (3, 5, 9, 13, 3), (4, 5, 11, 8, 12), (4, 5, 12, 12, 2), (4, 5, 14, 24, 1)]


def audit(seed: int, workdir: Path) -> Workload:
    """fibers on G(n, m) graphs, n = 4..10 at three densities (three graphs
    each), for every ell inside the audit caps; prooflab on tiny bipartite
    instances of fixed size."""
    rng = random.Random(f"audit/{seed}")
    w = Workload("audit")
    shapes = [(n, p) for n in range(4, 11) for p in FIBER_DENSITIES]
    for i, (n, p) in enumerate(shapes * FIBER_GRAPHS_PER_DENSITY):
        edges = gnm_edges(n, max(1, round(p * math.comb(n, 2))), rng)
        counts = refs.profile_by_edge_subsets(n, edges)
        cover = refs.bipartite_profile(n, n, double_cover_edges(edges))
        path = _add_input(w, workdir, f"fib{i:03d}.edges", "edges",
                          edge_list_text(n, edges))
        for ell in range(n // 2 + 1):
            if counts[ell] <= FIBER_COUNT_CAP and cover[2 * ell] <= FIBER_COVER_CAP:
                w.ops.append(Op(["fibers", "--graph", path, "--ell", str(ell)],
                                "fibers", _fiber_check(counts[ell], cover[2 * ell])))
    for k, (ell, m, n_edges, saturating, copies) in enumerate(PROOFLAB_SHAPES):
        for i in range(copies):
            edges = tiny_bipartite_edges(ell, m, n_edges, saturating, rng)
            path = _add_input(w, workdir, f"lab{k}{i}.bip", "bipartite",
                              bipartite_text(ell, m, edges))
            w.ops.append(Op(["prooflab", "--graph", path, "--ell", str(ell)],
                            f"prooflab-{ell}x{m}", _prooflab_check(saturating)))
    rng.shuffle(w.ops)
    return w


WORKLOADS = {"regular": regular, "campaign": campaign, "audit": audit}


def build(name: str, seed: int, workdir: Path) -> Workload:
    w = WORKLOADS[name](seed, workdir)
    if len(w.ops) < MIN_OPS_PER_PASS:
        raise ValueError(f"{name} has {len(w.ops)} operations per pass, "
                         f"fewer than {MIN_OPS_PER_PASS}")
    for inp in w.inputs:
        Path(inp.path).write_text(inp.text, encoding="utf-8")
    return w
