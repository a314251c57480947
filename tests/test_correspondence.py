import json
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbound import (CapExceeded, Graph, complete_bipartite, correspondence,
                        cycle_graph, disjoint_union, enumerate_matchings, parse_graph6,
                        random_graph, verify_fibers)
from oracles import classify_multigraph, count_pair_decompositions

C3_PLUS_K2 = disjoint_union([cycle_graph(3), Graph(2, [(0, 1)])])
TWO_TRIANGLES = disjoint_union([cycle_graph(3), cycle_graph(3)])
# verify_fibers reports recorded before pattern keys became integers
GOLDEN = json.loads((Path(__file__).parent / "data" / "fiber_reports.json").read_text())


def union_items(*matchings):
    """The sorted ((u, v), multiplicity) items of the multiset union of edge
    lists: two matchings of a graph, or the (x, y) pairs of one double-cover
    matching, whose image {x, y} is counted the same way."""
    return sorted(Counter((min(u, v), max(u, v)) for m in matchings for u, v in m).items())


def pair_fiber(items):
    """The pair-fiber law for one pattern: zero unless it is valid."""
    valid, comps, odd_paths, odd_cycle = correspondence._classify(items)
    return correspondence._pair_fiber(comps, odd_paths, odd_cycle) if valid else 0


class TestUnionClassify:
    def test_repeated_edge_is_two_cycle(self):
        items = union_items([(0, 1)], [(0, 1)])
        assert items == [((0, 1), 2)]
        assert correspondence._classify(items) == (True, 0, 0, False)

    def test_c4_cross_pair(self):
        items = union_items([(0, 1), (2, 3)], [(1, 2), (3, 0)])
        assert correspondence._classify(items) == (True, 1, 0, False)
        assert count_pair_decompositions(items, 2) == 2

    def test_shared_endpoint_path(self):
        # a 2-edge path: one component, no odd path
        assert correspondence._classify(union_items([(0, 1)], [(1, 2)])) == \
            (True, 1, 0, False)

    def test_matching_pairs_never_make_odd_cycles(self):
        for seed in range(15):
            g = random_graph(8, 0.4, seed)
            matchings = list(enumerate_matchings(g, 2))
            for m1, m2 in product(matchings[:12], repeat=2):
                valid, _comps, _odd_paths, odd_cycle = \
                    correspondence._classify(union_items(m1, m2))
                assert valid and not odd_cycle

    def test_component_count_definition(self):
        # independent recount: paths + cycles of length >= 4 + odd cycles
        def recount(items):
            adj = {}
            for (u, v), mult in items:
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
                mult_edges = sum(m for (u, v), m in items if u in comp)
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
                items = union_items(m1, m2)
                assert correspondence._classify(items)[1] == recount(items)
        items = union_items([(0, 1), (1, 2), (2, 0)])  # a triangle's cover image
        assert correspondence._classify(items)[1] == recount(items) == 1


class TestPairFiberLaw:
    def test_unbalanced_split(self):
        # two disjoint single edges: the 2^c formula (4) overcounts; the
        # balanced-split law gives the true fiber of 2 ordered pairs
        items = union_items([(0, 1)], [(2, 3)])
        assert correspondence._classify(items) == (True, 2, 2, False)
        assert pair_fiber(items) == 2
        assert count_pair_decompositions(items, 1) == 2

    def test_all_pairs_cross_check(self):
        # brute-force the pair map and compare each fiber with both the
        # closed form and the assignment enumeration
        for seed, ell in ((0, 1), (1, 2), (2, 2), (3, 3)):
            g = random_graph(7, 0.45, seed)
            matchings = list(enumerate_matchings(g, ell))
            fibers = Counter(tuple(union_items(m1, m2))
                             for m1, m2 in product(matchings, repeat=2))
            for items, count in fibers.items():
                assert count == pair_fiber(items)
                assert count == count_pair_decompositions(items, ell)


class TestProjection:
    def test_two_cycle(self):
        items = union_items([(0, 1), (1, 0)])
        assert items == [((0, 1), 2)]
        assert correspondence._classify(items)[1] == 0

    def test_triangle_two_matchings_give_paths(self):
        cover_graph = Graph(6, [(u, 3 + y) for u, y in
                                ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))])
        distinct_image = 0
        for match in enumerate_matchings(cover_graph, 2):
            items = union_items([(u, v - 3) for u, v in match])
            valid, comps, _odd_paths, _odd_cycle = correspondence._classify(items)
            assert valid
            if len(items) == 2:
                assert comps == 1  # 2-edge path
                distinct_image += 1
        assert distinct_image > 0

    def test_odd_cycle_projection(self):
        items = union_items([(0, 1), (1, 2), (2, 0)])
        assert correspondence._classify(items) == (True, 1, 0, True)
        assert pair_fiber(items) == 0


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
                assert rep.passed, (i, ell, rep.to_json_dict())
                assert rep.totals["countSquared"] <= rep.totals["coverCount"]

    @pytest.mark.parametrize("ell", [-1, 3])
    def test_ell_out_of_range(self, ell):
        with pytest.raises(ValueError, match=r"ell must lie in 0\.\.N/2 = 0\.\.2"):
            verify_fibers(cycle_graph(4), ell)

    def test_caps(self, monkeypatch):
        g = complete_bipartite(5, 5).to_graph()
        monkeypatch.setattr(correspondence, "COUNT_CAP", 10)
        with pytest.raises(CapExceeded, match=r"^200 matchings exceed the audit cap 10; "
                           r"the cap is the fixed constant correspondence\.COUNT_CAP, "
                           r"with no knob$"):
            verify_fibers(g, 2)
        monkeypatch.setattr(correspondence, "COUNT_CAP", 10_000)
        monkeypatch.setattr(correspondence, "COVER_CAP", 10)
        with pytest.raises(CapExceeded, match=r"^\d+ cover matchings exceed the audit cap "
                           r"10; the cap is the fixed constant correspondence\.COVER_CAP, "
                           r"with no knob$"):
            verify_fibers(g, 2)

    def test_invalid_pattern_offenders_capped(self, monkeypatch):
        # classify every projection as invalid: far more than ten offenders
        monkeypatch.setattr(correspondence, "_classify", lambda items: (False, 0, 0, False))
        rep = verify_fibers(cycle_graph(8), 2)
        assert not rep.passed
        assert 1 <= len(rep.offenders) <= 10
        assert all(o["check"] == "b" for o in rep.offenders)
        assert rep.offenders[0]["detail"] == "projection is not a path/cycle pattern"

    def test_json_shape(self):
        doc = verify_fibers(cycle_graph(3), 1, graph_id="C3").to_json_dict()
        assert doc["schema"] == 1
        assert doc["passed"] is True
        assert doc["totals"]["countSquared"] == "9"
        assert len(doc["checks"]) == 5
        assert doc["offenders"] == []


@st.composite
def edge_multisets(draw):
    """Arbitrary edge multisets, many of them invalid (degree or
    multiplicity above 2)."""
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    mults = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=len(edges),
                          max_size=len(edges)))
    return sorted(zip(edges, mults))


@st.composite
def path_cycle_unions(draw):
    """Valid patterns: vertex-disjoint paths, cycles and doubled edges."""
    n = draw(st.integers(2, 14))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    items = []
    for a, b in zip([0] + cuts, cuts + [n]):
        seg = order[a:b]
        kind = draw(st.sampled_from(["path", "cycle", "double"]))
        if len(seg) == 2 and kind == "double":
            items.append(((min(seg), max(seg)), 2))
            continue
        closing = [(seg[-1], seg[0])] if kind == "cycle" and len(seg) >= 3 else []
        for u, v in list(zip(seg, seg[1:])) + closing:
            items.append(((min(u, v), max(u, v)), 1))
    return sorted(items)


class TestClassifier:
    """The one pattern classifier against a per-component set search."""

    @settings(max_examples=300, deadline=None)
    @given(edge_multisets())
    @example([])
    @example([((0, 1), 1), ((0, 2), 1), ((1, 2), 1)])
    @example([((0, 1), 2), ((1, 2), 1)])
    @example([((0, 1), 3)])
    def test_arbitrary_multisets(self, items):
        assert correspondence._classify(items) == classify_multigraph(items)

    @settings(max_examples=300, deadline=None)
    @given(path_cycle_unions())
    def test_path_cycle_unions(self, items):
        expected = classify_multigraph(items)
        assert expected[0]
        assert correspondence._classify(items) == expected

    def test_two_odd_cycles(self):
        items = sorted(((u, v), 1) for u, v in TWO_TRIANGLES.edges)
        assert correspondence._classify(items) == (True, 2, 0, True)


class TestRecordedReports:
    """Reports byte for byte as recorded from the Counter-based audit."""

    @pytest.mark.parametrize("entry", GOLDEN["graphs"], ids=lambda e: e["name"])
    def test_reports(self, entry):
        g = parse_graph6(entry["graph6"])
        for ell, text in entry["reports"].items():
            rep = verify_fibers(g, int(ell), graph_id=entry["name"])
            assert json.dumps(rep.to_json_dict(), indent=2) == text
        for ell in entry["cappedElls"]:
            with pytest.raises(CapExceeded):
                verify_fibers(g, ell)

    def test_corpus_coverage(self):
        assert len(GOLDEN["graphs"]) == 43
        assert sum(len(e["reports"]) for e in GOLDEN["graphs"]) == 170
        for e in GOLDEN["graphs"]:  # every ell is recorded or listed as capped
            ells = sorted([*map(int, e["reports"]), *e["cappedElls"]])
            assert ells == list(range(parse_graph6(e["graph6"]).n // 2 + 1))


def _checks(rep):
    return {c.name[0]: c.passed for c in rep.checks}


class TestAuditCatchesFaults:
    """Each measured fiber is compared with its law: a fault in the
    classifier or in either enumeration fails the check that owns it."""

    def test_wrong_cover_fiber_law(self, monkeypatch):
        # one component too many predicts 2^(c+1) cover matchings
        classify = correspondence._classify

        def extra_component(items):
            valid, comps, odd_paths, odd_cycle = classify(items)
            return valid, comps + 1, odd_paths, odd_cycle
        monkeypatch.setattr(correspondence, "_classify", extra_component)
        rep = verify_fibers(cycle_graph(6), 2)
        assert not _checks(rep)["b"]
        first = next(o for o in rep.offenders if o["check"] == "b")
        assert first["expected"] == 2 * first["actual"]

    @pytest.mark.parametrize("fault", ["drop", "duplicate"])
    def test_dropped_or_duplicated_pair(self, monkeypatch, fault):
        g = cycle_graph(6)
        real = correspondence.enumerate_matchings

        def faulty(graph, size, labels=None):
            out = list(real(graph, size, labels))
            if graph is g:  # the ell-matchings whose pairs are counted
                out = out[1:] if fault == "drop" else out + out[:1]
            return out
        monkeypatch.setattr(correspondence, "enumerate_matchings", faulty)
        rep = verify_fibers(g, 2)
        assert _checks(rep) == {"a": False, "b": True, "c": True, "d": True, "e": True}
        assert rep.offenders and all(o["check"] == "a" for o in rep.offenders)
        off = rep.offenders[0]
        assert (off["actual"] < off["expected"]) == (fault == "drop")

    def test_pair_union_no_cover_matching_reaches(self, monkeypatch):
        g = cycle_graph(6)
        first = next(enumerate_matchings(g, 2))
        doubled = sum(2 << 2 * g.edges.index(e) for e in first)  # the key of first + first
        real = correspondence.enumerate_matchings

        def faulty(graph, size, labels=None):
            out = real(graph, size, labels)
            if graph is not g:  # the cover: hide the matching onto first + first
                out = [m for m in out if sum(m) != doubled]
            return out
        monkeypatch.setattr(correspondence, "enumerate_matchings", faulty)
        rep = verify_fibers(g, 2)
        assert not _checks(rep)["a"] and not _checks(rep)["d"]
        assert rep.offenders == [{
            "check": "a",
            "pattern": {"edges": [[u, v, 2] for u, v in first], "nonTwoCycleComponents": 0,
                        "oddPathComponents": 0, "hasOddCycle": False, "valid": True},
            "actual": 1, "detail": "no cover matching projects onto this pair union"}]

    def test_classifier_missing_odd_cycles(self, monkeypatch):
        # two triangles: the only pattern of the cover's perfect matchings
        # holds two odd cycles and no pair of 3-matchings (there is none)
        assert verify_fibers(TWO_TRIANGLES, 3).passed
        classify = correspondence._classify

        def blind(items):
            valid, comps, odd_paths, _odd_cycle = classify(items)
            return valid, comps, odd_paths, False
        monkeypatch.setattr(correspondence, "_classify", blind)
        rep = verify_fibers(TWO_TRIANGLES, 3)
        assert _checks(rep) == {"a": False, "b": True, "c": False, "d": True, "e": True}
        assert rep.offenders[0]["check"] == "a"
        assert (rep.offenders[0]["expected"], rep.offenders[0]["actual"]) == (4, 0)

    def test_pair_work_guard(self, monkeypatch):
        # a cover count below the square would fail (e); the pairs are then
        # not enumerated, since their number is no longer bounded by the cap
        real = correspondence.matching_profile

        def short_cover(graph):
            prof = real(graph)
            return prof if graph.n == 6 else [min(c, 8) for c in prof]
        enumerated = []
        real_enumerate = correspondence.enumerate_matchings

        def recording(graph, size, labels=None):
            enumerated.append(graph.n)
            return real_enumerate(graph, size, labels)
        monkeypatch.setattr(correspondence, "matching_profile", short_cover)
        monkeypatch.setattr(correspondence, "enumerate_matchings", recording)
        monkeypatch.setattr(correspondence, "COVER_CAP", 10)
        rep = verify_fibers(cycle_graph(6), 1)
        assert enumerated == [12]  # the cover only
        assert rep.checks[0].detail == \
            "pair fibers not measured: 36 ordered pairs exceed the audit cap 10"
        assert not _checks(rep)["a"] and not _checks(rep)["e"]
