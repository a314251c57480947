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

from matchbound import (BipartiteGraph, Graph, complete_bipartite, cycle_graph,
                        disjoint_union, matching_marginals, matching_profile,
                        parse_graph6, saturating_count, umc_extremal_profile)
from matchbound.counting import MaskProfiler
from oracles import cycle_profile, matching_profile_bruteforce

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
