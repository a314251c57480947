"""Seeded counterexample-search campaigns.

A violation is a structured finding, never an assertion failure: campaigns
record it with a self-contained graph serialization and keep running.
Per-sample seeds are seed + index, so samples are reproducible in isolation.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .bounds import genminc_bound, log2_int, wild_bound
from .counting import (PHI_READINGS, _marginal_table, matching_profile, saturating_count,
                       umc_extremal_profile)
from .errors import CapExceeded
from .graphs import (BipartiteGraph, check_vertex_count, emit_bipartite, emit_graph6,
                     random_regular)

SLACK_EPS = 1e-9
SHARP_THRESHOLD = 0.01
GENERATOR_RETRY_CAP = 1000


@dataclass
class CampaignConfig:
    conjecture: str                      # "umc" | "genminc" | "wild"
    samples: int
    seed: int
    n_vertices: int | None = None        # umc: N
    d: int | None = None                 # umc: degree
    ell: int | None = None               # genminc/wild: |X| = ell
    size_y: int | None = None            # genminc/wild: M
    edge_prob: float | None = None       # genminc/wild; None: not given, read as 0.5
    family: str = "random"               # "random" | "sharp"
    ell_values: list[int] | None = None  # umc: None means all 0..N/2
    phi_interp: str | None = None        # wild; None: not given, read as "gamma"

    def __post_init__(self):
        """Check every campaign rule, so a config that exists can be run.
        The fields keep what was given, so a copy checks the same rules."""
        if self.conjecture not in ("umc", "genminc", "wild"):
            raise ValueError(f"unknown conjecture {self.conjecture!r}")
        if self.samples < 0:
            raise ValueError(f"samples must be nonnegative, got {self.samples}")
        if self.conjecture == "umc":
            n, d = self.n_vertices, self.d
            if n is None or d is None:
                raise ValueError("umc campaigns need N and d")
            if self.ell is not None or self.size_y is not None:
                raise ValueError("umc campaigns take no single ell or M")
            if self.family == "sharp":
                raise ValueError("umc campaigns take no sharp family: they draw random "
                                 "regular graphs")
            if self.edge_prob is not None:
                raise ValueError("umc campaigns take no edge probability: they draw "
                                 "random regular graphs")
            if n < 1:
                raise ValueError(f"N must be positive, got {n}")
            if d < 1:
                raise ValueError(f"d must be positive, got {d}")
            if n % (2 * d) != 0:
                raise ValueError(f"2d = {2 * d} must divide N = {n}")
            if any(not 0 <= l <= n // 2 for l in self.ell_values or ()):
                raise ValueError(f"ell values must lie in 0..{n // 2}")
        else:
            ell, m = self.ell, self.size_y
            if ell is None or m is None:
                raise ValueError(f"{self.conjecture} campaigns need ell and M")
            if (self.n_vertices, self.d, self.ell_values) != (None, None, None):
                raise ValueError(f"{self.conjecture} campaigns take no N, d or "
                                 "list of ell values")
            if not 1 <= ell <= m:
                raise ValueError(f"need 1 <= ell <= M, got ell={ell}, M={m}")
        if self.family not in ("random", "sharp"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.phi_interp not in (None, *PHI_READINGS):
            raise ValueError(f"unknown interpretation {self.phi_interp!r}")
        if self.phi_interp is not None and self.conjecture != "wild":
            raise ValueError(f"{self.conjecture} campaigns take no phi reading: only "
                             "the wild bound reads phi")
        if not 0 <= self.draw_prob <= 1:  # NaN fails the comparison too
            raise ValueError(f"edge probability must lie in [0, 1], got {self.edge_prob}")
        check_vertex_count(self.n_vertices or self.ell + self.size_y)  # a sample's vertices

    @property
    def draw_prob(self) -> float:
        """The edge probability a random draw takes: 0.5 when none was given."""
        return 0.5 if self.edge_prob is None else self.edge_prob

    @property
    def phi_reading(self) -> str:
        """The reading of phi a wild bound takes: "gamma" when none was given."""
        return self.phi_interp or PHI_READINGS[0]

    def to_json_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "samples": self.samples,
            "seed": self.seed,
            "N": self.n_vertices,
            "d": self.d,
            "ell": self.ell,
            "M": self.size_y,
            "edgeProb": self.draw_prob,
            "family": self.family,
            "ellValues": self.ell_values,
            "phiInterp": self.phi_reading,
        }


@dataclass
class Violation:
    graph: str          # graph6 (umc) or bipartite text format (genminc/wild)
    ell: int
    bound: str
    lhs_bits: float | None
    rhs_bits: float | None
    lhs_count: str | None = None
    rhs_count: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph,
            "ell": self.ell,
            "bound": self.bound,
            "lhsBits": self.lhs_bits,
            "rhsBits": self.rhs_bits,
            "lhsCount": self.lhs_count,
            "rhsCount": self.rhs_count,
        }


@dataclass
class CampaignReport:
    config: CampaignConfig
    instances: int = 0
    worst_slack_bits: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    sharp_candidates: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "conjecture": self.config.conjecture,
            "config": self.config.to_json_dict(),
            "instances": self.instances,
            "worstSlackBits": self.worst_slack_bits,
            "violations": [v.to_json_dict() for v in self.violations],
            "sharpCandidates": self.sharp_candidates,
            "runtimeSeconds": self.runtime_seconds,
        }


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run a campaign; its config checked every rule when it was built."""
    start = time.perf_counter()
    report = CampaignReport(config=cfg)
    if cfg.conjecture == "umc":
        _umc_samples(cfg, report)
    else:
        _bipartite_samples(cfg, report)
    report.runtime_seconds = time.perf_counter() - start
    return report


def _umc_samples(cfg: CampaignConfig, report: CampaignReport) -> None:
    """Compare seeded d-regular samples against the disjoint-K_{d,d} profile,
    exact integer against exact integer, for every requested ell."""
    n, d = cfg.n_vertices, cfg.d
    extremal = umc_extremal_profile(n, d)
    ells = cfg.ell_values if cfg.ell_values is not None else range(n // 2 + 1)
    for idx in range(cfg.samples):
        g = random_regular(n, d, cfg.seed + idx)
        prof = matching_profile(g)
        for ell in ells:
            cnt = prof[ell]
            ext = extremal[ell]
            if cnt > ext:
                report.violations.append(Violation(
                    graph=emit_graph6(g), ell=ell, bound="umc-extremal",
                    lhs_bits=log2_int(cnt), rhs_bits=log2_int(ext),
                    lhs_count=str(cnt), rhs_count=str(ext)))
        report.worst_slack_bits.append(min(
            (log2_int(extremal[ell]) - log2_int(prof[ell]) for ell in ells if prof[ell]),
            default=None))
        report.instances += 1


def _random_instance(ell: int, m: int, p: float, seed, sweep):
    """A seeded bipartite instance with |X| = ell, no isolated X-vertex, and
    at least one X-saturating matching, with what `sweep` found on it: its
    count of such matchings, or its marginal table."""
    rng = random.Random(seed)
    for _ in range(GENERATOR_RETRY_CAP):
        edges = [(x, y) for x in range(ell) for y in range(m) if rng.random() < p]
        cand = BipartiteGraph(ell, m, edges)
        if min(cand.degrees_x) < 1:  # no X-saturating matching; skip the sweep's tables
            continue
        found = sweep(cand)  # 0 or None when there is no X-saturating matching
        if found:
            return cand, found
    raise CapExceeded(
        f"no usable instance in {GENERATOR_RETRY_CAP} draws (ell={ell}, M={m}, p={p}); "
        "the draw cap is the fixed constant campaigns.GENERATOR_RETRY_CAP, so raise "
        "--edge-prob: a draw with an isolated X-vertex or no X-saturating matching "
        "is rejected")


def _partitions(n: int):
    """The partitions of n >= 1 as non-increasing tuples in lexicographic
    order. The walk keeps its own stack, so a partition of any length is
    within reach."""
    chosen: list[int] = []  # the parts of the current prefix
    k = 1  # the part to try next in the next place
    while True:
        if k <= min(chosen[-1] if chosen else n, n):
            chosen.append(k)
            n -= k
            k = 1
            if n == 0:
                yield tuple(chosen)
        elif chosen:
            n += chosen[-1]
            k = chosen.pop() + 1
        else:
            return


def _sharp_family(ell: int, m: int, limit: int) -> list[BipartiteGraph]:
    """Disjoint unions of complete bipartite blocks K_{a, a*M/ell} with part
    ratios all equal to ell/M; the generalized bound is exact on these. With
    g = gcd(ell, M) such a block exists exactly when ell/g divides a, so the
    members are the partitions of g, part k scaled to K_{k*ell/g, k*M/g}.
    Only the first `limit` partitions are walked."""
    g = math.gcd(ell, m)
    instances = []
    # zip stops at the end of the range before it asks the walk for more
    for _, parts in zip(range(limit), _partitions(g)):
        edges = []
        x_off = y_off = 0
        for k in parts:
            a, b_size = k * ell // g, k * m // g
            edges.extend((x_off + i, y_off + j)
                         for i in range(a) for j in range(b_size))
            x_off += a
            y_off += b_size
        instances.append(BipartiteGraph(ell, m, edges))
    return instances


def _bipartite_samples(cfg: CampaignConfig, report: CampaignReport) -> None:
    """Compare exact log2 counts against the generalized per-degree bound
    (and the entropy-argument variant for "wild" configs). A wild instance
    is accepted from its marginal table, whose total is the count."""
    ell, m, wild = cfg.ell, cfg.size_y, cfg.conjecture == "wild"
    sweep = _marginal_table if wild else saturating_count
    if cfg.family == "sharp":
        instances = [(inst, sweep(inst)) for inst in _sharp_family(ell, m, cfg.samples)]
    else:
        instances = [_random_instance(ell, m, cfg.draw_prob, cfg.seed + idx, sweep)
                     for idx in range(cfg.samples)]

    for inst, found in instances:
        cnt = found.total if wild else found
        exact = log2_int(cnt)
        bounds = [("genminc", genminc_bound(inst))]
        if wild:
            bounds.append((f"wild-{cfg.phi_reading}", wild_bound(found, cfg.phi_reading)))
        for name, value in bounds:
            slack = value - exact
            if slack < -SLACK_EPS:
                report.violations.append(Violation(
                    graph=emit_bipartite(inst), ell=ell, bound=name,
                    lhs_bits=exact, rhs_bits=value, lhs_count=str(cnt)))
            elif slack < SHARP_THRESHOLD:
                report.sharp_candidates.append(
                    {"index": report.instances, "bound": name, "slackBits": slack})
        report.worst_slack_bits.append(min(value - exact for _name, value in bounds))
        report.instances += 1
