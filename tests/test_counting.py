import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, CapExceeded, Graph, complete_bipartite,
                        cycle_graph, disjoint_union, enumerate_matchings,
                        kdd_profile, matching_marginals, matching_profile,
                        profile_convolution, profile_to_json, random_graph,
                        saturating_count, umc_extremal_profile)
from matchbound.campaigns import _sharp_family
from oracles import (cycle_profile, kdd_count, matching_profile_bruteforce,
                     matchings_by_subsets)


class TestMatchingProfile:
    def test_single_edge(self):
        assert matching_profile(Graph(2, [(0, 1)])) == [1, 1]

    def test_c6(self):
        assert matching_profile(cycle_graph(6)) == [1, 6, 9, 2]
        assert cycle_profile(6) == [1, 6, 9, 2]

    def test_k33(self):
        prof = matching_profile(complete_bipartite(3, 3).to_graph())
        assert prof == [1, 9, 18, 6]
        assert prof == [kdd_count(3, l) for l in range(4)]

    def test_header_invariants(self):
        for seed in range(20):
            g = random_graph(9, 0.4, seed)
            prof = matching_profile(g)
            assert prof[0] == 1
            assert prof[1] == g.num_edges
            assert len(prof) == g.n // 2 + 1

    def test_beyond_64_vertices(self):
        # no vertex limit: 70 vertices with one edge count like any graph
        assert matching_profile(Graph(70, [(0, 1)])) == [1, 1] + [0] * 34

    def test_state_cap(self, monkeypatch):
        g = complete_bipartite(4, 4).to_graph()
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        with pytest.raises(CapExceeded, match=r"state cap of 4 exceeded: \d+ states "
                           r"at sweep step \d+ of 8; raise it with MATCHBOUND_STATE_CAP"):
            matching_profile(g)
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert matching_profile(g) == kdd_profile(4)

    def test_relabeling_invariance(self):
        rng = random.Random(99)
        for seed in range(5):
            g = random_graph(9, 0.4, seed)
            prof = matching_profile(g)
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
                assert matching_profile(relabeled) == prof


class TestBruteforce:
    def test_c6(self):
        assert matching_profile_bruteforce(cycle_graph(6)) == [1, 6, 9, 2]

    def test_triangle(self):
        assert matching_profile_bruteforce(cycle_graph(3)) == [1, 3]

    def test_no_edges(self):
        # indices run to floor(n/2) with zeros past the maximum matching size
        assert matching_profile_bruteforce(Graph(3)) == [1, 0]
        assert matching_profile(Graph(3)) == [1, 0]

    def test_edge_cap(self):
        with pytest.raises(AssertionError):
            matching_profile_bruteforce(complete_bipartite(5, 5).to_graph())

    def test_agrees_with_subset_enumeration(self):
        for seed in range(10):
            g = random_graph(7, 0.5, seed)
            prof = matching_profile_bruteforce(g)
            for l in range(len(prof)):
                assert prof[l] == len(matchings_by_subsets(g.edges, l))


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return Graph(n, edges)


class TestEnumerateMatchings:
    @settings(max_examples=150, deadline=None)
    @given(tiny_graphs())
    def test_matches_subset_enumeration_in_order(self, g):
        for k in range(g.n // 2 + 2):
            assert list(enumerate_matchings(g, k)) == matchings_by_subsets(g.edges, k)

    def test_labels_applied(self):
        g = cycle_graph(4)  # edges (0,1), (0,3), (1,2), (2,3)
        assert list(enumerate_matchings(g, 2, "abcd")) == [("a", "d"), ("b", "c")]
        assert list(enumerate_matchings(g, 1, range(4))) == [(0,), (1,), (2,), (3,)]

    def test_size_zero_yields_empty_matching(self):
        assert list(enumerate_matchings(cycle_graph(5), 0)) == [()]
        assert list(enumerate_matchings(Graph(3), 0)) == [()]

    def test_beyond_matching_number_yields_nothing(self):
        assert list(enumerate_matchings(cycle_graph(5), 3)) == []
        assert list(enumerate_matchings(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2)) == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_matchings(cycle_graph(4), -1)


class TestOracleEquivalence:
    def test_random_graphs(self):
        for seed in range(60):
            n = 4 + seed % 7
            g = random_graph(n, 0.45, seed)
            if g.num_edges > 24:
                continue
            assert matching_profile(g) == matching_profile_bruteforce(g)

    def test_cycle_law(self):
        for n in range(3, 21):
            assert matching_profile(cycle_graph(n)) == cycle_profile(n)


class TestConvolution:
    def test_two_edges(self):
        assert profile_convolution([1, 1], [1, 1]) == [1, 2, 1]

    def test_identity(self):
        assert profile_convolution([1], [1, 6, 9, 2]) == [1, 6, 9, 2]

    def test_double_k33(self):
        p = matching_profile(complete_bipartite(3, 3).to_graph())
        conv = profile_convolution(p, p)
        assert conv[2] == 1 * 18 + 9 * 9 + 18 * 1 == 117
        both = disjoint_union([complete_bipartite(3, 3).to_graph()] * 2)
        assert matching_profile(both)[:len(conv)] == conv

    def test_disjoint_union_law(self):
        for seed in range(8):
            g = random_graph(5, 0.5, seed)
            h = random_graph(6, 0.4, seed + 100)
            conv = profile_convolution(matching_profile(g), matching_profile(h))
            full = matching_profile(disjoint_union([g, h]))
            padded = conv + [0] * (len(full) - len(conv))
            assert padded[:len(full)] == full


class TestKddProfile:
    def test_small(self):
        assert kdd_profile(2) == [1, 4, 2]
        assert kdd_profile(3) == [1, 9, 18, 6]

    def test_against_bruteforce(self):
        import math
        for d in range(1, 5):
            g = complete_bipartite(d, d).to_graph()
            assert kdd_profile(d) == matching_profile_bruteforce(g)
            assert kdd_profile(d)[d] == math.factorial(d)

    def test_extremal_profile(self):
        assert umc_extremal_profile(12, 3) == matching_profile(
            disjoint_union([complete_bipartite(3, 3).to_graph()] * 2))
        assert umc_extremal_profile(8, 2)[:3] == [1, 8, 20]


class TestSerialization:
    def test_round_trip_preserves_precision(self):
        prof = kdd_profile(30)  # counts far beyond 2^64
        assert prof[30] > 1 << 100
        assert [int(c) for c in json.loads(profile_to_json(prof))["counts"]] == prof

    def test_decimal_strings(self):
        doc = json.loads(profile_to_json([1, 6, 9, 2]))
        assert doc["schema"] == 1
        assert doc["counts"] == ["1", "6", "9", "2"]


class TestMarginals:
    def test_k22_symmetry(self):
        table = matching_marginals(complete_bipartite(2, 2))
        assert all(p == Fraction(1, 2) for row in table.p for p in row)
        assert table.mu == [Fraction(1), Fraction(1)]
        assert table.h_edge == [1.0, 1.0]

    def test_worked_example(self):
        b = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        table = matching_marginals(b)
        assert table.p[0] == [Fraction(2, 3), Fraction(1, 3), Fraction(0)]
        assert table.p[1] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
        assert table.mu == [Fraction(2, 3)] * 3

    def test_complete_rows_uniform(self):
        for ell, m in ((2, 4), (3, 5)):
            table = matching_marginals(complete_bipartite(ell, m))
            assert all(p == Fraction(1, m) for row in table.p for p in row)

    def test_row_sums_and_mu_total(self):
        rng = random.Random(5)
        found = 0
        while found < 12:
            ell, m = rng.choice([(2, 3), (3, 4), (3, 5)])
            edges = [(x, y) for x in range(ell) for y in range(m)
                     if rng.random() < 0.6]
            b = BipartiteGraph(ell, m, edges)
            try:
                table = matching_marginals(b)
            except ValueError:
                continue
            found += 1
            for row in table.p:
                assert sum(row, Fraction(0)) == 1
            assert sum(table.mu, Fraction(0)) == ell
            assert all(table.nu[y] == 1 - table.mu[y] for y in range(m))

    def test_errors(self):
        blocked = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="saturating"):
            matching_marginals(blocked)
        tall = BipartiteGraph(3, 2, [(0, 0), (1, 1), (2, 1)])
        with pytest.raises(ValueError, match="size_y"):
            matching_marginals(tall)

    def test_json_fractions(self):
        b = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        doc = matching_marginals(b).to_json_dict()
        assert doc["p"][0][0] == "2/3"
        assert doc["mu"] == ["2/3", "2/3", "2/3"]


class TestColumnDP:
    def test_sharp_family_closed_form(self):
        # disjoint blocks K_{a, a*M/ell}: a uniform saturating matching pairs
        # each x with one of its block's a*M/ell columns uniformly
        ell, m = 8, 12
        family = _sharp_family(ell, m, limit=10)
        assert len(family) == 5
        for b in family:
            table = matching_marginals(b)
            expected_count = 1
            for x, ys in enumerate(b.adj_x):
                a = b.adj_x.count(ys)
                assert len(ys) == a * m // ell
                assert table.p[x] == [Fraction(ell, a * m) if y in ys else Fraction(0)
                                      for y in range(m)]
                if x == 0 or b.adj_x[x - 1] != ys:  # first x of its block
                    expected_count *= math.perm(a * m // ell, a)
            assert saturating_count(b) == expected_count

    def test_no_saturating_matching(self):
        assert saturating_count(BipartiteGraph(2, 3, [(0, 0), (0, 1)])) == 0
        assert saturating_count(BipartiteGraph(3, 2, [(0, 0), (1, 1), (2, 1)])) == 0

    def test_state_cap(self, monkeypatch):
        b = complete_bipartite(6, 6)
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        message = (r"column state cap of 4 exceeded: \d+ states at column \d+ of 6; "
                   r"raise it with MATCHBOUND_STATE_CAP")
        with pytest.raises(CapExceeded, match=message):
            saturating_count(b)
        with pytest.raises(CapExceeded, match=message):
            matching_marginals(b)
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert saturating_count(b) == math.factorial(6)


class TestSubsetDecomposition:
    def test_count_splits_over_x_subsets(self):
        # every ell-matching saturates a unique ell-subset of X
        from itertools import combinations
        rng = random.Random(17)
        for trial in range(10):
            sx, sy = rng.choice([(3, 4), (4, 4), (4, 5)])
            edges = [(x, y) for x in range(sx) for y in range(sy)
                     if rng.random() < 0.55]
            if not edges:
                continue
            b = BipartiteGraph(sx, sy, edges)
            for ell in range(1, min(sx, sy) + 1):
                total = matching_profile(b.to_graph())[ell]
                split = 0
                for subset in combinations(range(sx), ell):
                    keep = set(subset)
                    sub_edges = [(sorted(keep).index(x), y)
                                 for x, y in edges if x in keep]
                    sub = BipartiteGraph(ell, sy, sub_edges)
                    split += matching_profile(sub.to_graph())[ell]
                assert split == total
