"""The frontier-DP counting engine against recorded profiles, the brute-force
oracle, closed forms and hand-counted edge cases.

`data/engine_profiles.json` holds profiles computed by the memoized
mask-recursion engine that the frontier DP replaced, including graphs far
beyond the brute-force oracle's 24 edges.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, CapExceeded, Graph, complete_bipartite,
                        counting, cycle_graph, kdd_profile, matching_marginals,
                        matching_profile, parse_graph6, random_regular, saturating_count,
                        umc_extremal_profile)
from matchbound.counting import MaskProfiler
from oracles import (cycle_profile, disjoint_union, greedy_plan,
                     matching_profile_bruteforce)

GOLDEN = json.loads((Path(__file__).parent / "data" / "engine_profiles.json").read_text())
LARGE = [e for e in GOLDEN["graphs"] if not e["name"].startswith("criterion-1")]


class TestRecordedProfiles:
    @pytest.mark.parametrize("entry", LARGE, ids=lambda e: e["name"])
    def test_large_graphs(self, entry):
        g = parse_graph6(entry["graph6"])
        assert g.n >= 24
        assert [str(c) for c in matching_profile(g)] == entry["counts"]

    def test_criterion_1_random_corpus(self):
        entries = [e for e in GOLDEN["graphs"] if e["name"].startswith("criterion-1")]
        assert len(entries) == 500
        for e in entries:
            assert [str(c) for c in matching_profile(parse_graph6(e["graph6"]))] == \
                e["counts"], e["name"]

    def test_six_vertex_graphs(self):
        pairs = list(itertools.combinations(range(6), 2))
        digest = hashlib.sha256()
        for mask in range(1 << 15):
            edges = [pairs[i] for i in range(15) if mask >> i & 1]
            prof = matching_profile(Graph(6, edges))
            digest.update((" ".join(map(str, prof)) + "\n").encode())
        assert digest.hexdigest() == GOLDEN["sixVertexSha256"]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    return Graph(n, edges)


@st.composite
def bipartite_instances(draw, max_x=4, max_y=6):
    size_x = draw(st.integers(1, max_x))
    size_y = draw(st.integers(size_x, max_y))
    pairs = list(itertools.product(range(size_x), range(size_y)))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return BipartiteGraph(size_x, size_y, edges)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_engine_matches_oracle(self, g):
        assert matching_profile(g) == matching_profile_bruteforce(g)

    @settings(max_examples=200, deadline=None)
    @given(bipartite_instances())
    def test_marginals_match_enumeration(self, b):
        edges = set(b.edges)
        hits = [[0] * b.size_y for _ in range(b.size_x)]
        total = 0
        for ys in itertools.permutations(range(b.size_y), b.size_x):
            if all((x, y) in edges for x, y in enumerate(ys)):
                total += 1
                for x, y in enumerate(ys):
                    hits[x][y] += 1
        if total == 0:
            with pytest.raises(ValueError, match="saturating"):
                matching_marginals(b)
            return
        table = matching_marginals(b)
        assert table.p == [[Fraction(h, total) for h in row] for row in hits]
        assert table.mu == [sum((table.p[x][y] for x in range(b.size_x)), Fraction(0))
                            for y in range(b.size_y)]


    @settings(max_examples=300, deadline=None)
    @given(bipartite_instances(max_x=6, max_y=8))
    @example(BipartiteGraph(3, 5, [(0, 0), (1, 0), (2, 1), (2, 2)]))  # none saturating
    @example(BipartiteGraph(2, 6, [(0, 1), (0, 4), (1, 4)]))  # isolated Y-vertices
    @example(BipartiteGraph(6, 8))
    def test_saturating_count_matches_engine(self, b):
        assert saturating_count(b) == matching_profile(b.to_graph())[b.size_x]


@st.composite
def sparse_graphs(draw, max_n=30):
    """Up to max_n vertices, each given one of four block labels; the edges
    join vertices of the same block, so the blocks interleave in index order
    and the graph often has several components and isolated vertices."""
    n = draw(st.integers(1, max_n))
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if block[u] == block[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60)) if pairs else []
    return Graph(n, edges)


class TestPlan:
    """The planner keeps its candidate set across steps; its plan must equal
    the one of the planner that rebuilds the candidates every step."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    @example(Graph(1))
    @example(Graph(6))
    @example(Graph(7, [(2, 5), (0, 6), (1, 3), (3, 4), (1, 4)]))
    @example(Graph(9, [(0, 5), (1, 6), (2, 7), (3, 8), (5, 8)]))  # interleaved components
    def test_matches_rebuilding_planner(self, g):
        assert MaskProfiler(g).plan == greedy_plan(g)

    def test_recorded_graphs(self):
        for entry in GOLDEN["graphs"]:
            g = parse_graph6(entry["graph6"])
            assert MaskProfiler(g).plan == greedy_plan(g), entry["name"]


class TestPackingBoundaries:
    def test_no_edges(self):
        assert matching_profile(Graph(1)) == [1]
        assert matching_profile(Graph(5)) == [1, 0, 0]

    def test_one_edge(self):
        assert matching_profile(Graph(2, [(0, 1)])) == [1, 1]

    def test_isolated_vertices(self):
        assert matching_profile(Graph(7, [(2, 5)])) == [1, 1, 0, 0]
        assert matching_profile(Graph(6, [(0, 5), (1, 4)])) == [1, 2, 1, 0]

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 20, 41])
    def test_disjoint_edges(self, m):
        # C(m, k) comes closest to the 2^|E| bound that makes packing carry-free
        g = disjoint_union([Graph(2, [(0, 1)])] * m)
        assert matching_profile(g) == [math.comb(m, k) for k in range(m + 1)]


class TestPeakStates:
    """len(engine.memo) is the peak state count of the last dict sweep, or
    the 2^top slots of the last packed table, which the benchmark's traced
    counting.states sums. The dict sweeps' values (C_100, the cubic n = 32
    graph) were read when memo still held the widest table itself; the other
    graphs have slots of at most 512 bits and sweep a packed table."""

    @pytest.mark.parametrize("graph, peak", [
        (cycle_graph(100), 4),
        (random_regular(18, 4, 0), 64),
        (random_regular(22, 3, 1), 64),
        (random_regular(32, 3, 2), 112),
        (complete_bipartite(4, 4).to_graph(), 32),
        (Graph(5), 1),
    ])
    def test_recorded_peak(self, graph, peak):
        engine = MaskProfiler(graph)
        assert len(engine.memo) == 1
        for _ in range(2):  # each sweep starts its count afresh
            engine.profile()
            assert len(engine.memo) == peak


def relabelled_kdd_union(d: int, copies: int, seed: int) -> Graph:
    g = disjoint_union([complete_bipartite(d, d).to_graph()] * copies)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def refuse(*_args):
    pytest.fail("this path must not run")


class TestTableKinds:
    """profile sweeps one packed int when the slot width W is at most
    counting.PACKED_WIDTH_LIMIT bits and a dict of the live states above
    it; both sweeps give the same polynomial on every graph."""

    @pytest.mark.parametrize("limit", [0, 1 << 20], ids=["dict", "packed"])
    def test_recorded_profiles_on_either_path(self, monkeypatch, limit):
        monkeypatch.setattr(counting, "PACKED_WIDTH_LIMIT", limit)
        for entry in GOLDEN["graphs"]:
            assert [str(c) for c in matching_profile(parse_graph6(entry["graph6"]))] == \
                entry["counts"], entry["name"]

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    @example(complete_bipartite(4, 4).to_graph())  # v takes a leaving neighbour's slot
    def test_sweeps_agree_on_small_graphs(self, g):
        engine = MaskProfiler(g)
        assert engine._packed_sweep() == engine._dict_sweep()

    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_sweeps_agree_on_sparse_graphs(self, g):
        engine = MaskProfiler(g)
        assert engine._packed_sweep() == engine._dict_sweep()

    @pytest.mark.parametrize("graph, profile, width", [
        (relabelled_kdd_union(3, 3, 1), umc_extremal_profile(18, 3), 320),
        (relabelled_kdd_union(3, 4, 2), umc_extremal_profile(24, 3), 512),
        (relabelled_kdd_union(4, 2, 3), umc_extremal_profile(16, 4), 320),
        (relabelled_kdd_union(4, 3, 4), umc_extremal_profile(24, 4), 640),
        (relabelled_kdd_union(4, 4, 0), umc_extremal_profile(32, 4), 1152),
        (Graph(30, random.Random(30).sample(list(itertools.combinations(range(30), 2)), 30)),
         None, 512),
        (Graph(12, list(itertools.combinations(range(12), 2))),
         [math.comb(12, 2 * k) * math.prod(range(2 * k - 1, 0, -2)) for k in range(7)], 512),
        (Graph(31, [(0, v) for v in range(1, 31)]), [1, 30] + [0] * 14, 512),
        (cycle_graph(30), cycle_profile(30), 512),
        (random_regular(24, 3, 0), None, 512),
        (random_regular(26, 3, 0), None, 576),
        (random_regular(22, 4, 0), None, 576),
        (random_regular(32, 3, 2), None, 896),
    ], ids=["3xK33", "4xK33", "2xK44", "3xK44", "4xK44", "G30_30", "K12", "star", "C30",
            "cubic24", "cubic26", "quartic22", "cubic32"])
    def test_sweeps_agree_on_both_sides_of_the_rule(self, graph, profile, width):
        engine = MaskProfiler(graph)
        assert engine.width == width
        packed = engine._packed_sweep()
        assert packed == engine._dict_sweep()
        if profile is not None:
            assert engine.profile() == profile

    def test_width_512_sweeps_packed(self, monkeypatch):
        engine = MaskProfiler(random_regular(24, 3, 0))  # (12 + 1)(36 + 1) = 481 bits
        assert engine.width == counting.PACKED_WIDTH_LIMIT == 512
        expected = engine.profile()
        monkeypatch.setattr(MaskProfiler, "_dict_sweep", refuse)
        assert engine.profile() == expected

    def test_width_576_sweeps_dict(self, monkeypatch):
        engine = MaskProfiler(random_regular(26, 3, 0))  # (13 + 1)(39 + 1) = 560 bits
        assert engine.width == 576
        expected = engine.profile()
        monkeypatch.setattr(MaskProfiler, "_packed_sweep", refuse)
        assert engine.profile() == expected

    def test_state_cap_counts_slots_before_the_sweep(self, monkeypatch):
        # K_{4,4} sweeps 2^5 slots; its fifth vertex takes slot bit 16
        g = complete_bipartite(4, 4).to_graph()
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "31")
        engine = MaskProfiler(g)
        monkeypatch.setattr(counting, "_lacking", refuse)  # no table is built
        with pytest.raises(CapExceeded) as refused:
            engine.profile()
        assert str(refused.value) == (
            "frontier state cap of 31 exceeded: 32 states at sweep step 5 of 8; "
            "raise it with MATCHBOUND_STATE_CAP")
        monkeypatch.undo()
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "32")
        engine = MaskProfiler(g)
        assert engine.profile() == kdd_profile(4)
        assert engine.memo == range(32)


class TestBeyond64Vertices:
    def test_cycle_100(self):
        engine = MaskProfiler(cycle_graph(100))
        assert engine.profile() == cycle_profile(100)
        # the sweep walks round the cycle: two frontier vertices at most
        assert len(engine.memo) <= 4

    def test_relabelled_kdd_union(self):
        g = disjoint_union([complete_bipartite(4, 4).to_graph()] * 9)
        perm = list(range(g.n))
        random.Random(72).shuffle(perm)
        relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert g.n == 72
        assert matching_profile(relabelled) == umc_extremal_profile(72, 4)
