import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, CapExceeded, Graph, complete_bipartite,
                        cycle_graph, enumerate_matchings, kdd_profile,
                        matching_marginals, matching_profile, parse_bipartite,
                        profile_convolution, profile_to_json, saturating_count,
                        umc_extremal_profile)
from matchbound.campaigns import _sharp_family
from matchbound.cli import main
from matchbound import counting
from matchbound.counting import _columns, _marginal_table
from oracles import (cycle_profile, disjoint_union, kdd_count, marginal_hits_by_dicts,
                     matching_profile_bruteforce, matchings_by_subsets, random_graph,
                     saturating_count_by_dicts)

# campaign reports and marginals recorded from the dict-keyed column DP
CORPUS = json.loads((Path(__file__).parent / "data" / "column_dp_reports.json").read_text())


def refuse_pickers(size):
    pytest.fail(f"built the slot pickers of a {size}-vertex component")


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


class TestFoldedMatchings:
    """enumerate_matchings folds labels with + from its start value: the
    default (start ()) takes each label as a 1-tuple, start 0 sums them."""

    @settings(max_examples=150, deadline=None)
    @given(tiny_graphs(), st.data())
    def test_integer_fold_is_the_sum_of_each_tuple(self, g, data):
        labels = data.draw(st.lists(st.integers(-10, 1 << 70), min_size=g.num_edges,
                                    max_size=g.num_edges))
        for k in range(g.n // 2 + 2):
            tuples = list(enumerate_matchings(g, k, labels))
            assert list(enumerate_matchings(g, k, labels, 0)) == list(map(sum, tuples))
            assert list(enumerate_matchings(g, k, None, ())) == \
                list(enumerate_matchings(g, k)) == matchings_by_subsets(g.edges, k)

    def test_tuple_start_is_a_prefix(self):
        g = cycle_graph(4)  # edges (0,1), (0,3), (1,2), (2,3)
        assert list(enumerate_matchings(g, 2, "abcd", ("s",))) == \
            [("s", "a", "d"), ("s", "b", "c")]
        assert list(enumerate_matchings(g, 0, range(4), 7)) == [7]

    def test_walk_streams(self):
        # K_14 has 135135 perfect matchings; the first few need only the stack
        g = Graph(14, list(itertools.combinations(range(14), 2)))
        tracemalloc.start()
        try:
            walk = enumerate_matchings(g, 7, [1 << i for i in range(g.num_edges)], 0)
            first = [next(walk) for _ in range(10)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first[0] == sum(1 << g.edges.index((2 * i, 2 * i + 1)) for i in range(7))
        assert peak < 64 * 1024


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

    @pytest.mark.parametrize("d", range(1, 7))
    def test_extremal_profile_is_the_iterated_convolution(self, d):
        # the power recurrence against t convolutions of the block profile
        prof = [1]
        for t in range(1, 13):
            prof = profile_convolution(prof, kdd_profile(d))
            assert umc_extremal_profile(2 * d * t, d) == prof

    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^d must be positive$"):
            kdd_profile(0)
        with pytest.raises(ValueError, match=r"^degree must be positive$"):
            umc_extremal_profile(8, 0)


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
        message = (r"column state cap of 4 exceeded: 2\^6 states at column 0 of 6; "
                   r"raise it with MATCHBOUND_STATE_CAP")
        with pytest.raises(CapExceeded, match=message):
            saturating_count(b)
        with pytest.raises(CapExceeded, match=message):
            matching_marginals(b)
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert saturating_count(b) == math.factorial(6)

    def test_connected_input_refused_with_a_power(self, tmp_path, monkeypatch, capsys):
        # a path is one component: its 2^1200 slots are refused, and the
        # message states them as a power, not as 362 digits
        monkeypatch.delenv("MATCHBOUND_STATE_CAP", raising=False)
        path = tmp_path / "path.bip"
        path.write_text("B 1200 1201 2400\n" + "".join(
            f"{x} {x}\n{x} {x + 1}\n" for x in range(1200)))
        assert main(["marginals", "--graph", str(path), "--ell", "1200"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err) < 200
        assert "column state cap of 1048576 exceeded: 2^1200 states at column 0 of 1201" in err


@st.composite
def column_instances(draw):
    """Small bipartite graphs of any shape, |X| > |Y| and isolated vertices included."""
    size_x, size_y = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    pairs = [(x, y) for x in range(size_x) for y in range(size_y)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return BipartiteGraph(size_x, size_y, [e for e, k in zip(pairs, keep) if k])


@st.composite
def wide_instances(draw):
    """|X| = 9 against about 300 columns with a few edges missing: the slot
    values pass 2^64, so every table needs 128-bit slots of two limbs."""
    size_y = draw(st.integers(290, 310))
    missing = set(draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, size_y - 1)),
                                max_size=40)))
    return BipartiteGraph(9, size_y, [(x, y) for x in range(9) for y in range(size_y)
                                      if (x, y) not in missing])


class TestColumnDPOracle:
    """The packed column DP against the dict-keyed one kept in oracles.py."""

    # the examples reach each end-column case of the marginals: ell = 1
    # alone, one non-empty column (with and without a saturating matching),
    # no inner column, empty first and last columns
    @settings(max_examples=200, deadline=None)
    @example(BipartiteGraph(1, 1, [(0, 0)]))
    @example(BipartiteGraph(1, 4, [(0, 2)]))
    @example(BipartiteGraph(1, 4, [(0, 0), (0, 3)]))
    @example(BipartiteGraph(2, 3, [(0, 1), (1, 1)]))
    @example(BipartiteGraph(2, 4, [(0, 1), (1, 1), (0, 2), (1, 2)]))
    @example(BipartiteGraph(3, 5, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    @given(column_instances())
    def test_small(self, b):
        assert saturating_count(b) == saturating_count_by_dicts(b)
        if b.size_x > b.size_y:
            return
        hits, total = marginal_hits_by_dicts(b)
        if not total:
            assert _marginal_table(b) is None
            with pytest.raises(ValueError, match="graph has no X-saturating matching"):
                matching_marginals(b)
            return
        table = matching_marginals(b)
        assert (table.ell, table.hits, table.total) == (b.size_x, hits, total)
        found = _marginal_table(b)
        assert (found.ell, found.hits, found.total) == (b.size_x, hits, total)

    # shrinking a failing 300-column instance would take minutes
    @settings(max_examples=3, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(wide_instances())
    def test_two_limb_slots(self, b):
        table = matching_marginals(b)
        assert table.total >= 1 << 70
        assert saturating_count(b) == table.total
        assert (table.hits, table.total) == marginal_hits_by_dicts(b)

    def test_two_limb_slots_k12_50(self):
        # prod d_x = 49^4 * 50^8 >= 2^64: every slot takes two limbs
        missing = {(x, 7 * x % 50) for x in range(4)}
        b = BipartiteGraph(12, 50, [(x, y) for x in range(12) for y in range(50)
                                    if (x, y) not in missing])
        assert math.prod(b.degrees_x) >= 1 << 64
        table = matching_marginals(b)
        assert (table.hits, table.total) == marginal_hits_by_dicts(b)
        assert len({tuple(row) for row in table.hits}) > 1

    @pytest.mark.parametrize("ell, m", [(1, 1), (3, 5), (5, 5)])
    def test_cap_boundary(self, ell, m, monkeypatch):
        b = complete_bipartite(ell, m)
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", str(1 << ell))
        assert saturating_count(b) == math.perm(m, ell)
        assert matching_marginals(b).total == math.perm(m, ell)
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", str((1 << ell) - 1))
        message = (f"column state cap of {(1 << ell) - 1} exceeded: 2^{ell} states "
                   f"at column 0 of {m}; raise it with MATCHBOUND_STATE_CAP")
        for count in (saturating_count, matching_marginals):
            with pytest.raises(CapExceeded) as info:
                count(b)
            assert str(info.value) == message

    def test_rationals_read_twice(self):
        b = BipartiteGraph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (0, 3)])
        table = matching_marginals(b)
        first = (table.p, table.mu, table.nu, table.h_edge)
        assert (table.p, table.mu, table.nu, table.h_edge) == first
        assert table.p[0][0] == Fraction(table.hits[0][0], table.total)
        read_first = matching_marginals(b)
        _ = read_first.p
        assert read_first.to_json_dict() == matching_marginals(b).to_json_dict()
        assert json.dumps(read_first.to_json_dict()) == json.dumps(table.to_json_dict())


@st.composite
def sparse_instances(draw):
    """Bipartite graphs with at most |X| + |Y| edges: isolated columns and
    X-vertices, several components, some with |X_c| > |Y_c|."""
    size_x, size_y = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    edges = draw(st.sets(st.tuples(st.integers(0, size_x - 1), st.integers(0, size_y - 1)),
                         max_size=size_x + size_y))
    return BipartiteGraph(size_x, size_y, edges)


def low_prob_draws():
    """Seeded draws at low edge probabilities, as a campaign's --edge-prob draws them."""
    rng = random.Random(24)
    for _ in range(400):
        ell, m, p = rng.randint(1, 7), rng.randint(1, 10), rng.choice([0.1, 0.2, 0.3])
        yield BipartiteGraph(ell, m, [(x, y) for x in range(ell) for y in range(m)
                                      if rng.random() < p])


def check_against_oracles(b):
    """Count and marginals of b against the dict-keyed column DP of oracles.py."""
    assert saturating_count(b) == saturating_count_by_dicts(b)
    if b.size_x <= b.size_y:
        hits, total = marginal_hits_by_dicts(b)
        found = _marginal_table(b)
        if total:
            assert (found.hits, found.total) == (hits, total)
        else:
            assert found is None


class TestComponents:
    """Each connected component runs its own column DP: counts multiply and
    a component's hits scale by the other components' totals."""

    @settings(max_examples=300, deadline=None)
    @example(BipartiteGraph(3, 4, [(0, 0), (1, 0), (2, 2)]))  # |X_c| > |Y_c|
    @example(BipartiteGraph(2, 5, [(0, 1), (1, 3)]))  # isolated columns around
    @example(BipartiteGraph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 3), (3, 3), (3, 2)]))
    @given(sparse_instances())
    def test_sparse(self, b):
        check_against_oracles(b)

    def test_low_edge_probability(self):
        seen = dict.fromkeys(["split", "whole", "|X_c| > |Y_c|", "isolated column",
                              "saturating", "not saturating"], 0)
        for b in low_prob_draws():
            check_against_oracles(b)
            parts = _columns(b)[0]
            seen["split" if len(parts) > 1 else "whole"] += 1
            seen["|X_c| > |Y_c|"] += any(len(xs) > len(ys) for xs, ys, *_ in parts)
            seen["isolated column"] += sum(len(ys) for _xs, ys, *_ in parts) < b.size_y
            seen["saturating" if saturating_count(b) else "not saturating"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("ell, m", [(8, 12), (6, 9), (12, 18), (10, 15), (22, 33),
                                        (40, 60), (40, 40), (30, 45), (36, 48)])
    def test_sharp_families(self, ell, m):
        # each block K_{a, a*M/ell} of a member multiplies the count by
        # perm(a*M/ell, a), and x meets its block's columns uniformly
        for b in _sharp_family(ell, m, limit=12):
            table = matching_marginals(b)
            count = 1
            for x, ys in enumerate(b.adj_x):
                a = b.adj_x.count(ys)
                assert len(ys) * ell == a * m
                assert table.p[x] == [Fraction(1, len(ys)) if y in ys else 0 for y in range(m)]
                if x == 0 or b.adj_x[x - 1] != ys:  # first x of its block
                    count *= math.perm(len(ys), a)
            assert saturating_count(b) == table.total == count

    def test_state_cap_reads_the_largest_component(self, monkeypatch):
        # K_{2,2} + K_{3,3}: 2^3 slots at most, where the whole X has 2^5
        b = BipartiteGraph(5, 5, [(x, y) for x in range(2) for y in range(2)]
                           + [(x, y) for x in range(2, 5) for y in range(2, 5)])
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "8")
        assert saturating_count(b) == 2 * 6
        assert matching_marginals(b).total == 12
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "7")
        message = ("column state cap of 7 exceeded: 2^3 states at column 0 of 5; "
                   "raise it with MATCHBOUND_STATE_CAP")
        for count in (saturating_count, matching_marginals):
            with pytest.raises(CapExceeded) as info:
                count(b)
            assert str(info.value) == message

    def test_slot_width_from_the_widest_component(self):
        # K_{1,1} first, then K_{9,300} less a few edges, whose slots for
        # 8 of its X-vertices pass 2^64: every table takes the wider slots
        missing = {(x, 7 * x % 300) for x in range(9)}
        b = BipartiteGraph(10, 301, [(0, 0)] + [(1 + x, 1 + y) for x in range(9)
                                                for y in range(300) if (x, y) not in missing])
        assert math.perm(299, 8) >= 1 << 64
        check_against_oracles(b)

    def test_count_builds_no_picker(self, monkeypatch):
        # a cold count on one component of 14 X-vertices builds the slot
        # masks alone (14 of 2^14 64-bit slots, 1.75 MiB); the pickers of
        # the marginals' dot products would hold about 7 MiB more
        rng = random.Random(14)
        edges = {(x, y) for x in range(14) for y in range(21) if rng.random() < 0.3}
        b = BipartiteGraph(14, 21, edges | {(x, x) for x in range(14)}
                           | {(x, x + 1) for x in range(14)})
        assert len(_columns(b)[0]) == 1
        monkeypatch.setattr(counting, "_pickers", refuse_pickers)
        counting._lacking.cache_clear()
        tracemalloc.start()
        try:
            count = saturating_count(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == saturating_count_by_dicts(b)
        assert peak < 3 << 20

    def test_many_components_past_the_whole_table_cap(self):
        # 21 disjoint edges: 2^21 slots for the whole X, 2 per component
        b = BipartiteGraph(21, 21, [(x, x) for x in range(21)])
        assert saturating_count(b) == 1
        table = matching_marginals(b)
        assert table.total == 1
        assert table.p == [[Fraction(int(x == y)) for y in range(21)] for x in range(21)]


class TestRecordedColumnDP:
    """Reports recorded from the dict-keyed column DP, replayed through the CLI."""

    @pytest.mark.parametrize("entry", CORPUS["campaigns"],
                             ids=lambda e: " ".join(e["argv"][2:]))
    def test_campaign(self, entry, capsys):
        assert main(entry["argv"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("runtimeSeconds")
        assert json.dumps(doc, indent=2) == entry["report"]

    @pytest.mark.parametrize("entry", CORPUS["marginals"],
                             ids=lambda e: e["bipartite"].split("\n")[0])
    def test_marginals(self, entry, tmp_path, capsys):
        b = parse_bipartite(entry["bipartite"])
        assert str(saturating_count(b)) == entry["count"]
        path = tmp_path / "g.bip"
        path.write_text(entry["bipartite"])
        code = main(["marginals", "--graph", str(path), "--ell", str(b.size_x)])
        assert code == (0 if entry["stdout"] else 1)  # 1: no X-saturating matching
        assert capsys.readouterr().out == entry["stdout"]

    def test_corpus_coverage(self):
        assert len(CORPUS["campaigns"]) == 30
        assert len(CORPUS["marginals"]) == 40
        widths = [math.prod(parse_bipartite(e["bipartite"]).degrees_x).bit_length()
                  for e in CORPUS["marginals"]]
        assert max(widths) > 64  # one instance needs two-limb slots


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
