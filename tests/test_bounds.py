import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, Graph, as_bipartite, binary_entropy, bound_report,
                        bregman_bound, cgt_bound, complete_bipartite, cycle_graph,
                        elementary_symmetric, genminc_bound, kdd_profile, log2_int, log_ratio,
                        matching_marginals, matching_profile, phi_wild, psi,
                        random_regular, reports_to_csv, thm_bipartite_bound,
                        thm_dregular_bound, thm_general_bound, umc_extremal_main_term,
                        wild_bound)
from matchbound.bounds import _psi_loggamma
from matchbound.campaigns import _sharp_family
from matchbound.cli import main
from oracles import (disjoint_union, elementary_symmetric_by_subsets,
                     matching_profile_bruteforce)

LOG2E = math.log2(math.e)
MARGINAL_EXAMPLE = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
# `bounds --json` and `--csv` stdout recorded from the bound_report that
# recomputed the per-graph facts for every ell, and from json.dumps
BOUNDS_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "bounds_reports.json").read_text())


class TestScalarFunctions:
    def test_entropy_midpoint(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(Fraction(1, 2)) == 1.0

    def test_entropy_endpoints(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_entropy_quarter(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(binary_entropy(0.25) - expected) < 1e-15
        assert abs(binary_entropy(0.25) - 0.811278) < 1e-6

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_log_ratio_convention(self):
        assert log_ratio(1) == LOG2E
        assert log_ratio(2) == 1.0

    def test_log_ratio_continuity(self):
        assert abs(log_ratio(1 + 1e-8) - LOG2E) < 1e-6
        assert abs(log_ratio(1 + 1e-12) - LOG2E) < 1e-9

    def test_log_ratio_domain(self):
        with pytest.raises(ValueError):
            log_ratio(0.999)

    def test_log2_int_huge(self):
        n = 3 ** 500
        assert abs(log2_int(n) - 500 * math.log2(3)) < 1e-9


class TestRefusals:
    """The argument checks of the scalar and closed-form bounds, each pinned
    to its message."""

    @pytest.mark.parametrize("formula", [cgt_bound, umc_extremal_main_term,
                                         thm_dregular_bound])
    def test_dregular_checks(self, formula):
        with pytest.raises(ValueError, match=r"^degree must be positive$"):
            formula(4, 0, 1)
        with pytest.raises(ValueError, match=r"^need 0 <= 2\*ell <= N, got ell=3, N=4$"):
            formula(4, 2, 3)
        with pytest.raises(ValueError, match=r"^need 0 <= 2\*ell <= N, got ell=-1, N=4$"):
            formula(4, 2, -1)

    def test_general_bound_range(self):
        with pytest.raises(ValueError, match=r"^need 0 <= 2\*ell <= N, got ell=4$"):
            thm_general_bound(cycle_graph(6), 4)

    def test_log2_int_nonpositive(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match=r"^log2 of a nonpositive integer$"):
                log2_int(n)

    def test_psi_degree(self):
        for d in (2.5, 0, -1):
            with pytest.raises(ValueError, match=r"^d must be a positive integer$"):
                psi(d, 1)

    def test_phi_wild_negative_r(self):
        with pytest.raises(ValueError, match=r"^need r >= 0$"):
            phi_wild(-0.5, 0.25)


class TestBregman:
    def test_degree_one(self):
        assert bregman_bound([1, 1, 1]) == 0.0

    def test_k33_equality(self):
        count = matching_profile_bruteforce(complete_bipartite(3, 3).to_graph())[3]
        assert count == 6
        assert abs(bregman_bound([3, 3, 3]) - math.log2(6)) < 1e-12

    def test_c4_equality(self):
        count = matching_profile_bruteforce(cycle_graph(4))[2]
        assert count == 2
        assert bregman_bound([2, 2]) == 1.0

    def test_zero_degree(self):
        with pytest.raises(ValueError):
            bregman_bound([2, 0])


class TestCgtBound:
    def test_full_cover(self):
        assert abs(cgt_bound(6, 3, 3) - 3 * math.log2(3)) < 1e-12

    def test_zero(self):
        assert cgt_bound(10, 4, 0) == 0.0

    def test_degree_one_perfect(self):
        assert cgt_bound(4, 1, 2) == 0.0

    def test_range(self):
        with pytest.raises(ValueError):
            cgt_bound(4, 2, 3)


class TestExtremalMainTerm:
    def test_half_cover(self):
        expected = 2 * (0.5 + 2 * 1 + 0.5 * math.log2(0.5 / math.e))
        assert abs(umc_extremal_main_term(4, 2, 1) - expected) < 1e-12
        assert abs(expected - 2.5573) < 1e-4

    def test_gap_against_exact(self):
        exact = log2_int(kdd_profile(2)[1])
        assert exact == 2.0
        gap = abs(exact - umc_extremal_main_term(4, 2, 1)) / 2
        assert abs(gap - 0.2787) < 1e-3

    def test_zero(self):
        assert umc_extremal_main_term(10, 3, 0) == 0.0


class TestDregularBound:
    def test_six_vertices(self):
        val = thm_dregular_bound(6, 3, 3)
        assert abs(val - 3 * (math.log2(3) - LOG2E + math.log2(3) / 2)) < 1e-12
        # both cubic graphs on 6 vertices
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])
        k33 = complete_bipartite(3, 3).to_graph()
        for g in (prism, k33):
            assert val >= log2_int(matching_profile_bruteforce(g)[3])

    def test_single_edge_tight(self):
        assert thm_dregular_bound(2, 1, 1) == 0.0
        assert log2_int(matching_profile(Graph(2, [(0, 1)]))[1]) == 0.0

    def test_zero_matching(self):
        n, d = 8, 3
        assert abs(thm_dregular_bound(n, d, 0) - (n / 2) * log_ratio(d)) < 1e-12
        assert thm_dregular_bound(n, d, 0) >= 0


class TestElementarySymmetric:
    def test_example(self):
        assert elementary_symmetric([1, 2, 3], 2) == 11
        assert abs(log2_int(elementary_symmetric([1, 2, 3], 2)) - math.log2(11)) < 1e-12

    def test_empty(self):
        assert log2_int(elementary_symmetric([5, 7], 0)) == 0.0

    def test_regular_closed_form(self):
        n, d, ell = 9, 4, 3
        expected = math.log2(math.comb(n, ell) * d ** ell)
        assert abs(log2_int(elementary_symmetric([d] * n, ell)) - expected) < 1e-12

    def test_against_subset_sum(self):
        vals = [1, 2, 2, 3, 5, 7]
        for ell in range(len(vals) + 1):
            assert elementary_symmetric(vals, ell) == \
                elementary_symmetric_by_subsets(vals, ell)

    def test_range(self):
        with pytest.raises(ValueError):
            elementary_symmetric([1, 2], 3)


class TestBipartiteBound:
    def test_k33(self):
        val = thm_bipartite_bound(complete_bipartite(3, 3), 3)
        assert abs(val - (math.log2(27) + 3 * (-LOG2E + math.log2(3) / 2))) < 1e-12
        assert val >= math.log2(6)

    def test_k11_tight(self):
        assert abs(thm_bipartite_bound(complete_bipartite(1, 1), 1)) < 1e-12

    def test_marginal_example(self):
        assert thm_bipartite_bound(MARGINAL_EXAMPLE, 2) >= math.log2(3)

    def test_errors(self):
        isolated = BipartiteGraph(2, 2, [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="isolated"):
            thm_bipartite_bound(isolated, 2)
        with pytest.raises(ValueError):
            thm_bipartite_bound(complete_bipartite(2, 2), 3)


class TestGeneralBound:
    def test_c6(self):
        val = thm_general_bound(cycle_graph(6), 3)
        assert abs(val - (3 + 3 * (-LOG2E + 1))) < 1e-12
        assert val >= 1.0  # log2 of the 2 perfect matchings

    def test_zero_matching(self):
        g = cycle_graph(5)
        assert abs(thm_general_bound(g, 0) - (5 / 2) * log_ratio(2)) < 1e-12

    def test_isolated_vertex(self):
        with pytest.raises(ValueError, match="isolated"):
            thm_general_bound(Graph(3, [(0, 1)]), 1)

    def test_dominated_by_dregular(self):
        for seed in range(5):
            g = random_regular(10, 3, seed)
            for ell in range(6):
                general = thm_general_bound(g, ell)
                special = thm_dregular_bound(10, 3, ell)
                assert general <= special + 1e-9
                if 0 < 2 * ell < 10:
                    assert special - general >= 1e-6


class TestPsi:
    def test_trivial(self):
        assert psi(1, 1) == 0.0

    def test_falling_factorial(self):
        assert abs(psi(3, 2) - math.log2(6) / 2) < 1e-12

    def test_matches_bregman_term(self):
        for d in range(1, 8):
            assert abs(psi(d, d) - math.log2(math.factorial(d)) / d) < 1e-12

    def test_integer_consistency_of_loggamma_route(self):
        worst = 0.0
        for d in range(1, 51):
            for t in range(1, d + 1):
                exact = psi(d, t)
                via_gamma = _psi_loggamma(d, float(t))
                worst = max(worst, abs(exact - via_gamma))
        assert worst <= 1e-12

    def test_integral_float_degree(self):
        assert psi(3.0, 2) == psi(3, 2)
        assert psi(4.0, 1.5) == psi(4, 1.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(3, 0)
        with pytest.raises(ValueError):
            psi(3, 3.5)


class TestGenmincBound:
    def test_k24_tight(self):
        count = matching_profile_bruteforce(complete_bipartite(2, 4).to_graph())[2]
        assert count == 12
        assert abs(genminc_bound(complete_bipartite(2, 4)) - math.log2(12)) < 1e-12

    def test_square_case_is_bregman(self):
        for b in (complete_bipartite(3, 3),
                  BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])):
            assert abs(genminc_bound(b) - bregman_bound(b.degrees_x)) < 1e-12

    def test_marginal_example(self):
        val = genminc_bound(MARGINAL_EXAMPLE)
        assert abs(val - 2 * psi(2, Fraction(4, 3))) < 1e-12
        assert val >= math.log2(3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 8), st.data())
    def test_equals_psi_sum_on_random_instances(self, ell, extra, data):
        m = ell + extra
        degs = data.draw(st.lists(st.integers(1, m), min_size=ell, max_size=ell))
        b = BipartiteGraph(ell, m, [(x, y) for x, d in enumerate(degs) for y in range(d)])
        assert genminc_bound(b) == sum(psi(d, Fraction(ell * d, m)) for d in degs)

    def test_equals_psi_sum_on_sharp_and_mixed_instances(self):
        # sharp members have integral t only; the mixed ones have both kinds
        cases = [b for ell in range(1, 11) for m in range(ell, 2 * ell + 4)
                 for b in _sharp_family(ell, m, limit=4)]
        cases += [BipartiteGraph(4, 6, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                                        (2, 3), (3, 4), (3, 5)]),
                  BipartiteGraph(3, 7, [(x, y) for x in range(3) for y in range(2 + 2 * x)])]
        integral = set()
        for b in cases:
            ell, m = b.size_x, b.size_y
            integral.update(ell * d % m == 0 for d in b.degrees_x)
            assert genminc_bound(b) == sum(psi(d, Fraction(ell * d, m)) for d in b.degrees_x)
        assert integral == {True, False}

    def test_errors(self):
        with pytest.raises(ValueError, match="need ell <= size_y"):
            genminc_bound(complete_bipartite(4, 2))
        with pytest.raises(ValueError, match="isolated X-vertex"):
            genminc_bound(BipartiteGraph(2, 3, [(0, 0), (0, 1)]))


class TestPhiWild:
    def test_gamma_matches_psi(self):
        assert abs(phi_wild(2, 2, "gamma") - psi(4, 2)) < 1e-9

    def test_literal_differs(self):
        val = phi_wild(2, 2, "literal")
        assert abs(val - (math.log2(24) - math.log2(3)) / 2) < 1e-12
        assert val != pytest.approx(phi_wild(2, 2, "gamma"), abs=1e-6)

    def test_full_t(self):
        r = 3
        assert abs(phi_wild(r, 2 ** r, "gamma")
                   - math.log2(math.factorial(2 ** r)) / 2 ** r) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_wild(1, 3, "gamma")
        with pytest.raises(ValueError):
            phi_wild(1, 1, "else")


class TestWildBound:
    def test_complete_tight(self):
        for ell, m in ((2, 5), (3, 4)):
            b = complete_bipartite(ell, m)
            exact = log2_int(matching_profile(b.to_graph())[ell])
            assert abs(wild_bound(matching_marginals(b), "gamma") - exact) < 1e-9

    def test_uniform_marginals_match_genminc(self):
        # an 8-cycle split across the bipartition: every partner uniform
        b = BipartiteGraph(4, 4, [(0, 0), (0, 3), (1, 0), (1, 1), (2, 1), (2, 2),
                                  (3, 2), (3, 3)])
        assert abs(wild_bound(matching_marginals(b), "gamma") - genminc_bound(b)) < 1e-9

    def test_marginal_example_holds(self):
        val = wild_bound(matching_marginals(MARGINAL_EXAMPLE), "gamma")
        assert val >= math.log2(3) - 1e-9

    def test_literal_fails_on_star(self):
        # the printed (no-Gamma) reading drops below the exact count here
        b = complete_bipartite(1, 2)
        exact = log2_int(matching_profile(b.to_graph())[1])
        assert wild_bound(matching_marginals(b), "literal") < exact - 0.5
        assert abs(wild_bound(matching_marginals(b), "gamma") - exact) < 1e-9


class TestBoundReport:
    def test_c6(self):
        rep = bound_report(cycle_graph(6), [3], graph_id="C6")[0]
        assert rep.exact_count == 2
        for name in ("cgt", "dregular", "general"):
            entry = rep.entry(name)
            assert entry.applicable
            assert entry.slack_bits >= -1e-9

    def test_k33_bipartite(self):
        rep = bound_report(complete_bipartite(3, 3), [3])[0]
        assert rep.exact_count == 6
        assert abs(rep.entry("bregman").slack_bits) < 1e-12
        for name in ("bregman", "bipartite", "genminc"):
            assert rep.entry(name).applicable
        assert rep.entry("genminc").conjectural

    def test_ell_zero(self):
        rep = bound_report(cycle_graph(5), [0])[0]
        assert rep.exact_log2 == 0.0
        for entry in rep.entries:
            if entry.applicable:
                assert entry.value_bits >= -1e-12

    def test_bipartite_detection_from_plain_graph(self):
        rep = bound_report(complete_bipartite(3, 3).to_graph(), [3])[0]
        assert rep.entry("bregman").applicable
        assert abs(rep.entry("bregman").slack_bits) < 1e-12

    def test_odd_cycle_has_no_bipartite_entries(self):
        rep = bound_report(cycle_graph(5), [2])[0]
        assert not rep.entry("bregman").applicable
        assert not rep.entry("bipartite").applicable

    @pytest.mark.parametrize("ell", [4, -1])
    def test_ell_out_of_range(self, ell):
        with pytest.raises(ValueError, match=r"ell must lie in 0\.\.3"):
            bound_report(cycle_graph(6), [ell])

    def test_isolated_vertices_marked_inapplicable(self):
        g = Graph(4, [(0, 1)])
        rep = bound_report(g, [1])[0]
        assert not rep.entry("general").applicable
        assert rep.exact_count == 1

    def test_transposed_orientation_for_conjectured_bounds(self):
        # the ell-sized part sits on the Y side; the report flips it
        flipped = BipartiteGraph(4, 2, [(x, y) for x in range(4) for y in range(2)])
        rep = bound_report(flipped, [2])[0]
        entry = rep.entry("genminc")
        assert entry.applicable
        assert abs(entry.value_bits - genminc_bound(complete_bipartite(2, 4))) < 1e-12
        assert abs(entry.slack_bits) < 1e-9

    def test_csv_shape(self):
        reports = bound_report(cycle_graph(6), [0, 3], graph_id="C6")
        rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert rows[0] == ["graphId", "ell", "boundName", "valueBits", "exactBits",
                           "slackBits", "applicable"]
        assert len(rows) == 1 + sum(len(r.entries) for r in reports)

    def test_wild_row_kept_when_column_dp_refused(self):
        # a path of 43 vertices: the frontier DP counts it, but the wild bound's
        # column DP would need 2^21 slots, over the default cap of 2^20
        path = BipartiteGraph(21, 22, [e for x in range(21) for e in ((x, x), (x, x + 1))])
        rep = bound_report(path, [21])[0]
        assert rep.exact_count == 22  # the unmatched vertex sits at an even position
        wild = rep.entry("wild-gamma")
        assert wild.applicable and wild.conjectural
        assert wild.value_bits is None and wild.slack_bits is None
        for name in ("general", "bipartite", "genminc"):
            assert rep.entry(name).slack_bits >= -1e-9
        doc = rep.to_json_dict()["entries"][-1]
        assert (doc["applicable"], doc["valueBits"], doc["slackBits"]) == (True, None, None)

    @pytest.mark.parametrize("graph", [cycle_graph(5), complete_bipartite(2, 3)])
    def test_unknown_phi_reading_refused(self, graph):
        # refused before any row is built, bipartite input or not
        with pytest.raises(ValueError, match=r"^unknown interpretation 'bogus'$"):
            bound_report(graph, [2], phi_interp="bogus")

    def test_profile_refused_by_state_cap(self, monkeypatch):
        # the frontier DP is refused, so there is no exact count: the formula
        # rows keep their values without slack, and the wild row, which needs
        # a count, is inapplicable
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "2")
        rep = bound_report(complete_bipartite(3, 3), [3])[0]
        assert (rep.exact_count, rep.exact_log2) == (None, None)
        doc = rep.to_json_dict()
        assert (doc["exactCount"], doc["exactLog2Bits"]) == (None, None)
        assert [e.name for e in rep.entries] == [
            "cgt", "dregular", "general", "bregman", "bipartite", "genminc", "wild-gamma"]
        for entry in rep.entries[:-1]:
            assert entry.applicable and entry.value_bits is not None
            assert entry.slack_bits is None
        assert rep.entry("bregman").value_bits == bregman_bound([3, 3, 3])
        assert rep.entry("genminc").value_bits == genminc_bound(complete_bipartite(3, 3))
        wild = rep.entry("wild-gamma")
        assert (wild.applicable, wild.value_bits) == (False, None)

    def test_json_shape(self):
        doc = bound_report(cycle_graph(6), [2], graph_id="C6")[0].to_json_dict()
        assert doc["schema"] == 1
        assert doc["exactCount"] == "9"
        assert {e["name"] for e in doc["entries"]} >= {"cgt", "dregular", "general"}


class TestBregmanEqualityFamily:
    def test_disjoint_kdd_perfect(self):
        for d in range(1, 6):
            for copies in range(1, 4):
                block = complete_bipartite(d, d).to_graph()
                g = disjoint_union([block] * copies)
                ell = copies * d
                count = matching_profile(g)[ell]
                assert count == math.factorial(d) ** copies
                degs = [d] * (copies * d)
                assert abs(bregman_bound(degs) - log2_int(count)) < 1e-12


class TestRecordedReports:
    @pytest.mark.parametrize("layout", ["json", "csv"])
    @pytest.mark.parametrize("entry", BOUNDS_CORPUS["inputs"], ids=lambda e: e["name"])
    def test_stdout(self, entry, layout, tmp_path, monkeypatch, capsys):
        (tmp_path / entry["name"]).write_text(entry["input"])
        monkeypatch.chdir(tmp_path)  # the graph id is the path as given
        assert main(["bounds", "--graph", entry["name"], "--ell", entry["ell"],
                     f"--{layout}", "--phi-interp", entry["phiInterp"]]) == 0
        assert capsys.readouterr().out == entry[layout]

    def test_corpus_coverage(self):
        inputs = BOUNDS_CORPUS["inputs"]
        assert len(inputs) == 40
        assert {e["name"].rsplit(".", 1)[1] for e in inputs} == {"edges", "g6", "bip"}
        assert {e["phiInterp"] for e in inputs} == {"gamma", "literal"}
        lists = [[int(v) for v in e["ell"].split(",")] for e in inputs if e["ell"] != "all"]
        assert any(v != sorted(v) for v in lists)
        assert any(len(set(v)) < len(v) for v in lists)
        # the path21 wild row: applicable, with no value under the column cap
        assert any(",wild-gamma,,4.45943161864,,true" in e["csv"] for e in inputs)


def _views(g):
    """The bipartite view (or None) and the flat graph of a report's input."""
    if isinstance(g, BipartiteGraph):
        return g, g.to_graph()
    return as_bipartite(g), g


def _applicable(name: str, g, ell: int, count: int) -> bool:
    """Whether a report row applies, from its bound's own conditions."""
    bip, flat = _views(g)
    degs = flat.degrees
    if name in ("cgt", "dregular", "general"):
        return min(degs) >= 1 and (name == "general" or len(set(degs)) == 1)
    if bip is None:
        return False
    if name in ("bregman", "bipartite"):
        fits = (bip.size_x == bip.size_y == ell if name == "bregman"
                else 1 <= ell <= min(bip.size_x, bip.size_y))
        return fits and min(bip.degrees_x) >= 1
    # genminc and wild: a part of size ell, no larger than the other, with
    # no isolated vertex; X is taken when both parts qualify
    side = (bip.degrees_x if bip.size_x == ell
            else [len(a) for a in bip.adj_y] if bip.size_y == ell else [0])
    fits = 2 * ell <= bip.size_x + bip.size_y and min(side) >= 1
    return fits and (name == "genminc" or count > 0)


def _direct(name: str, g, ell: int):
    """The value of one report row from a direct call of its bound."""
    bip, flat = _views(g)
    if name in ("cgt", "dregular"):
        bound = cgt_bound if name == "cgt" else thm_dregular_bound
        return bound(flat.n, flat.degrees[0], ell)
    if name == "general":
        return thm_general_bound(flat, ell)
    if name == "bregman":
        return bregman_bound(bip.degrees_x)
    if name == "bipartite":
        return thm_bipartite_bound(bip, ell)
    view = bip if bip.size_x == ell else BipartiteGraph(
        bip.size_y, bip.size_x, [(y, x) for x, y in bip.edges])
    if name == "genminc":
        return genminc_bound(view)
    return wild_bound(matching_marginals(view), name.removeprefix("wild-"))


@st.composite
def bound_cases(draw):
    """Small graphs of every kind bound_report tells apart: regular, plain
    (some with isolated vertices), and bipartite with either part larger;
    with a list of ells and a reading of phi."""
    kind = draw(st.sampled_from(["regular", "plain", "bipartite"]))
    if kind == "regular":
        n, d = draw(st.sampled_from([(4, 1), (6, 2), (8, 3), (9, 4), (10, 3)]))
        g = random_regular(n, d, draw(st.integers(0, 10 ** 6)))
    elif kind == "plain":
        n = draw(st.integers(2, 9))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] < e[1])
        g = Graph(n, draw(st.lists(pair, unique=True, max_size=16)))
    else:
        size_x, size_y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        edge = st.tuples(st.integers(0, size_x - 1), st.integers(0, size_y - 1))
        g = BipartiteGraph(size_x, size_y, draw(st.lists(edge, unique=True, max_size=16)))
    n = g.size_x + g.size_y if isinstance(g, BipartiteGraph) else g.n
    ells = draw(st.lists(st.integers(0, n // 2), max_size=5))
    return g, ells, draw(st.sampled_from(["gamma", "literal"]))


class TestRowsEqualDirectCalls:
    """Each row applies exactly when its bound's conditions hold, and then
    holds the bits of a direct call of that bound."""

    @settings(max_examples=150, deadline=None)
    @given(bound_cases())
    @example((complete_bipartite(3, 2), [2, 1, 2], "gamma"))
    @example((complete_bipartite(2, 3), [2, 0], "literal"))
    @example((complete_bipartite(3, 3).to_graph(), [3, 1], "gamma"))
    @example((BipartiteGraph(3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]), [3], "gamma"))
    @example((Graph(5, [(0, 1), (1, 2), (2, 3)]), [2, 1], "literal"))
    def test_every_row_bit_for_bit(self, case):
        g, ells, interp = case
        for rep in bound_report(g, ells, phi_interp=interp):
            for entry in rep.entries:
                assert entry.applicable == _applicable(entry.name, g, rep.ell,
                                                       rep.exact_count), entry.name
                if entry.applicable:
                    direct = _direct(entry.name, g, rep.ell)
                    assert entry.value_bits.hex() == direct.hex(), (entry.name, rep.ell)
