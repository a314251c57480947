from dataclasses import replace
from itertools import product

import pytest

from matchbound import (CapExceeded, Graph, complete_bipartite, correspondence,
                        count_pair_decompositions, cycle_graph, disjoint_union,
                        enumerate_matchings, multiset_union_classify,
                        project_cover_matching, random_graph, verify_fibers)

C3_PLUS_K2 = disjoint_union([cycle_graph(3), Graph(2, [(0, 1)])])


class TestUnionClassify:
    def test_repeated_edge_is_two_cycle(self):
        pat = multiset_union_classify([(0, 1)], [(0, 1)], n=2)
        assert pat.edges == (((0, 1), 2),)
        assert pat.non_two_cycle_components == 0
        assert not pat.has_odd_cycle and pat.valid

    def test_c4_cross_pair(self):
        pat = multiset_union_classify([(0, 1), (2, 3)], [(1, 2), (3, 0)],
                                      graph=cycle_graph(4))
        assert pat.non_two_cycle_components == 1
        assert not pat.has_odd_cycle
        assert count_pair_decompositions(pat, 2) == 2

    def test_shared_endpoint_path(self):
        pat = multiset_union_classify([(0, 1)], [(1, 2)], n=3)
        assert pat.non_two_cycle_components == 1
        assert pat.odd_path_components == 0  # a 2-edge path

    def test_matching_pairs_never_make_odd_cycles(self):
        for seed in range(15):
            g = random_graph(8, 0.4, seed)
            matchings = list(enumerate_matchings(g, 2))
            for m1, m2 in product(matchings[:12], repeat=2):
                pat = multiset_union_classify(m1, m2, graph=g)
                assert pat.valid and not pat.has_odd_cycle

    def test_input_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            multiset_union_classify([(0, 1), (1, 2)], [(0, 1), (2, 3)], n=4)
        with pytest.raises(ValueError, match="size"):
            multiset_union_classify([(0, 1)], [(0, 1), (2, 3)], n=4)
        with pytest.raises(ValueError, match="graph edge"):
            multiset_union_classify([(0, 2)], [(0, 1)], graph=cycle_graph(4))

    def test_component_count_definition(self):
        # independent recount: paths + cycles of length >= 4 + odd cycles
        def recount(pattern):
            adj = {}
            for (u, v), mult in pattern.edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            seen = set()
            paths = long_cycles = odd_cycles = 0
            for start in adj:
                if start in seen:
                    continue
                comp = {start}
                stack = [start]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                seen |= comp
                mult_edges = sum(m for (u, v), m in pattern.edges if u in comp)
                if mult_edges == len(comp) - 1:
                    paths += 1
                elif len(comp) == 2:
                    continue  # doubled edge
                elif len(comp) % 2 == 0:
                    long_cycles += 1
                else:
                    odd_cycles += 1
            return paths + long_cycles + odd_cycles

        for seed in range(10):
            g = random_graph(8, 0.4, seed)
            matchings = list(enumerate_matchings(g, 2))
            for m1, m2 in product(matchings[:10], repeat=2):
                pat = multiset_union_classify(m1, m2, graph=g)
                assert pat.non_two_cycle_components == recount(pat)
        pat = project_cover_matching([(0, 1), (1, 2), (2, 0)], cycle_graph(3))
        assert pat.non_two_cycle_components == recount(pat) == 1


class TestPairFiberLaw:
    def test_unbalanced_split(self):
        # two disjoint single edges: the 2^c formula (4) overcounts; the
        # balanced-split law gives the true fiber of 2 ordered pairs
        g = Graph(4, [(0, 1), (2, 3)])
        pat = multiset_union_classify([(0, 1)], [(2, 3)], graph=g)
        assert pat.non_two_cycle_components == 2
        assert pat.odd_path_components == 2
        assert pat.pair_fiber_size() == 2
        assert pat.cover_fiber_size() == 4
        assert count_pair_decompositions(pat, 1) == 2

    def test_all_pairs_cross_check(self):
        # brute-force the pair map and compare each fiber with both the
        # closed form and the assignment enumeration
        for seed, ell in ((0, 1), (1, 2), (2, 2), (3, 3)):
            g = random_graph(7, 0.45, seed)
            matchings = list(enumerate_matchings(g, ell))
            fibers = {}
            for m1, m2 in product(matchings, repeat=2):
                pat = multiset_union_classify(m1, m2, graph=g)
                fibers.setdefault(pat.edges, [0, pat])[0] += 1
            for count, pat in fibers.values():
                assert count == pat.pair_fiber_size()
                assert count == count_pair_decompositions(pat, ell)


class TestProjection:
    def test_two_cycle(self):
        pat = project_cover_matching([(0, 1), (1, 0)], Graph(2, [(0, 1)]))
        assert pat.edges == (((0, 1), 2),)
        assert pat.non_two_cycle_components == 0

    def test_triangle_two_matchings_give_paths(self):
        g = cycle_graph(3)
        cover_graph = Graph(6, [(u, 3 + y) for u, y in
                                ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))])
        distinct_image = 0
        for match in enumerate_matchings(cover_graph, 2):
            pairs = [(u, v - 3) for u, v in match]
            pat = project_cover_matching(pairs, g)
            assert pat.valid
            if len(pat.edges) == 2:
                assert pat.non_two_cycle_components == 1  # 2-edge path
                distinct_image += 1
        assert distinct_image > 0

    def test_odd_cycle_projection(self):
        pat = project_cover_matching([(0, 1), (1, 2), (2, 0)], cycle_graph(3))
        assert pat.has_odd_cycle
        assert pat.non_two_cycle_components == 1
        assert pat.pair_fiber_size() == 0
        # same triangle image inside a larger host: one odd cycle, still valid
        pat2 = project_cover_matching([(0, 1), (1, 2), (2, 0)], C3_PLUS_K2)
        assert pat2.has_odd_cycle and pat2.valid

    def test_validation(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="project"):
            project_cover_matching([(0, 2)], g)
        with pytest.raises(ValueError, match="disjoint"):
            project_cover_matching([(0, 1), (0, 3)], g)


class TestVerifyFibers:
    def test_triangle_equality_case(self):
        rep = verify_fibers(cycle_graph(3), 1, graph_id="C3")
        assert rep.passed
        assert rep.totals["countSquared"] == 9
        assert rep.totals["evenPatternWeight"] == 9
        assert rep.totals["coverCount"] == 9

    def test_triangle_plus_edge_strict_case(self):
        rep = verify_fibers(C3_PLUS_K2, 2, graph_id="C3+K2")
        assert rep.passed
        assert rep.totals["countSquared"] == 9
        assert rep.totals["coverCount"] == 13
        # the odd-cycle patterns carry the full gap of 4
        assert rep.totals["allPatternWeight"] - rep.totals["claimedEvenPatternWeight"] == 4

    def test_trivial_ell(self):
        rep = verify_fibers(cycle_graph(4), 0)
        assert rep.passed
        assert rep.totals["countSquared"] == 1 == rep.totals["coverCount"]

    def test_c5_no_short_odd_cycles(self):
        # C5 contains no triangle, so 4-edge patterns cannot hold an odd
        # cycle and the square equals the cover count
        rep = verify_fibers(cycle_graph(5), 2)
        assert rep.passed
        assert rep.totals["countSquared"] == 25 == rep.totals["coverCount"]
        assert rep.totals["allPatternWeight"] == rep.totals["claimedEvenPatternWeight"]

    def test_bipartite_projections_have_no_odd_cycles(self):
        # odd-cycle patterns require an odd cycle in the base graph
        for g in (cycle_graph(6), cycle_graph(8)):
            for ell in range(g.n // 2 + 1):
                rep = verify_fibers(g, ell)
                assert rep.passed
                assert rep.totals["allPatternWeight"] == \
                    rep.totals["claimedEvenPatternWeight"]

    def test_random_graphs(self):
        for i in range(30):
            n = 4 + i % 6
            g = random_graph(n, 0.35, seed=500 + i)
            for ell in range(n // 2 + 1):
                rep = verify_fibers(g, ell)
                assert rep.passed, (i, ell, rep.to_json())
                assert rep.totals["countSquared"] <= rep.totals["coverCount"]

    @pytest.mark.parametrize("ell", [-1, 3])
    def test_ell_out_of_range(self, ell):
        with pytest.raises(ValueError, match=r"ell must lie in 0\.\.N/2 = 0\.\.2"):
            verify_fibers(cycle_graph(4), ell)

    def test_caps(self):
        g = complete_bipartite(5, 5).to_graph()
        with pytest.raises(CapExceeded):
            verify_fibers(g, 2, count_cap=10)
        with pytest.raises(CapExceeded):
            verify_fibers(g, 2, cover_cap=10)

    def test_invalid_pattern_offenders_capped(self, monkeypatch):
        # classify every projection as invalid: far more than ten offenders
        classify = correspondence._classify_edge_multiset
        monkeypatch.setattr(correspondence, "_classify_edge_multiset",
                            lambda n, mult: replace(classify(n, mult), valid=False))
        rep = verify_fibers(cycle_graph(8), 2)
        assert not rep.passed
        assert 1 <= len(rep.offenders) <= 10
        assert all(o["check"] == "b" for o in rep.offenders)

    def test_json_shape(self):
        doc = verify_fibers(cycle_graph(3), 1, graph_id="C3").to_json_dict()
        assert doc["schema"] == 1
        assert doc["passed"] is True
        assert doc["totals"]["countSquared"] == "9"
        assert len(doc["checks"]) == 5
        assert doc["offenders"] == []
