import dataclasses
import json
import math
import re
import time
from pathlib import Path

import pytest

from matchbound import (BipartiteGraph, CampaignConfig, CapExceeded, bregman_bound, genminc_bound,
                        log2_int, matching_marginals, matching_profile, parse_bipartite,
                        parse_graph6, run_campaign, umc_extremal_profile, wild_bound)
import matchbound
from matchbound.campaigns import _random_instance, _sharp_family
from matchbound.counting import _marginal_table, saturating_count
from matchbound.cli import main
from oracles import cycle_profile, sharp_family_by_descent

UMC_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "umc_reports.json").read_text())["umc"]


def _without_runtime(report) -> dict:
    doc = report.to_json_dict()
    doc.pop("runtimeSeconds")
    return doc


class TestUmcCampaign:
    def test_degree_one_is_extremal(self):
        cfg = CampaignConfig(conjecture="umc", samples=20, seed=3, n_vertices=4, d=1)
        rep = run_campaign(cfg)
        assert rep.instances == 20
        assert not rep.violations
        assert all(s == 0.0 for s in rep.worst_slack_bits)

    def test_c8_profile_against_extremal(self):
        extremal = umc_extremal_profile(8, 2)
        assert extremal == [1, 8, 20, 16, 4]
        c8 = cycle_profile(8)
        assert c8 == [1, 8, 20, 16, 2]
        assert all(c8[l] <= extremal[l] for l in range(5))

    def test_two_regular_batch(self):
        cfg = CampaignConfig(conjecture="umc", samples=50, seed=11, n_vertices=8, d=2)
        rep = run_campaign(cfg)
        assert not rep.violations
        assert min(rep.worst_slack_bits) >= 0.0

    def test_determinism(self):
        cfg = CampaignConfig(conjecture="umc", samples=30, seed=7, n_vertices=12, d=3)
        assert _without_runtime(run_campaign(cfg)) == _without_runtime(run_campaign(cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(conjecture="umc", samples=1, seed=0,
                                        n_vertices=10, d=3))

    def test_ell_subset(self):
        cfg = CampaignConfig(conjecture="umc", samples=5, seed=1, n_vertices=8, d=2,
                             ell_values=[2, 3])
        rep = run_campaign(cfg)
        assert rep.instances == 5 and not rep.violations

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError, match="0..4"):
            CampaignConfig(conjecture="umc", samples=1, seed=1, n_vertices=8, d=2,
                           ell_values=[5])


class TestRecordedUmc:
    """umc reports recorded while the pairing still shuffled its stubs with
    random.shuffle, replayed byte for byte with runtimeSeconds cut."""

    @pytest.mark.parametrize("entry", UMC_CORPUS, ids=lambda e: " ".join(e["argv"][3:]))
    def test_replay(self, entry, capsys):
        assert main(entry["argv"]) == 0
        out = re.sub(r'"runtimeSeconds": [^\n]*', '"runtimeSeconds": null',
                     capsys.readouterr().out)
        assert out == entry["stdout"]

    def test_corpus_coverage(self):
        shapes = {(e["argv"][4], e["argv"][6], "--ell" in e["argv"]) for e in UMC_CORPUS}
        for n, d in (("12", "2"), ("18", "3"), ("24", "3"), ("16", "4"), ("20", "5")):
            assert {(n, d, False), (n, d, True)} <= shapes


class TestConfigRules:
    """Each campaign rule is checked when the config is built, before any
    sample is drawn."""

    UMC = dict(conjecture="umc", samples=1, seed=0, n_vertices=8, d=2)
    GEN = dict(conjecture="genminc", samples=1, seed=0, ell=2, size_y=3)

    @pytest.mark.parametrize("base, change, message", [
        (UMC, {"conjecture": "minc"}, "unknown conjecture"),
        (UMC, {"samples": -1}, "samples must be nonnegative"),
        (UMC, {"d": None}, "umc campaigns need N and d"),
        (UMC, {"n_vertices": 10}, "2d = 4 must divide N = 10"),
        (UMC, {"d": 0}, "d must be positive, got 0"),
        (UMC, {"ell_values": [0, 5]}, r"ell values must lie in 0\.\.4"),
        (GEN, {"size_y": None}, "genminc campaigns need ell and M"),
        (GEN, {"ell": 0}, "need 1 <= ell <= M"),
        (GEN, {"ell": 4}, "need 1 <= ell <= M"),
        (GEN, {"family": "dense"}, "unknown family"),
        (GEN, {"phi_interp": "exact"}, "unknown interpretation"),
        (GEN, {"edge_prob": 1.5}, r"edge probability must lie in \[0, 1\]"),
        (GEN, {"edge_prob": -0.5}, r"edge probability must lie in \[0, 1\]"),
        (GEN, {"edge_prob": math.nan}, r"edge probability must lie in \[0, 1\]"),
        (UMC, {"n_vertices": 0}, "N must be positive, got 0"),
        (UMC, {"ell": 2}, "umc campaigns take no single ell or M"),
        (UMC, {"size_y": 3}, "umc campaigns take no single ell or M"),
        (GEN, {"n_vertices": 8}, "genminc campaigns take no N, d or list of ell"),
        (GEN, {"ell_values": [2]}, "genminc campaigns take no N, d or list of ell"),
        (UMC, {"family": "sharp"}, "umc campaigns take no sharp family"),
        (GEN, {"conjecture": "wild", "ell": None}, "wild campaigns need ell and M"),
        (UMC, {"edge_prob": 0.5}, "umc campaigns take no edge probability"),
        (UMC, {"phi_interp": "gamma"}, "umc campaigns take no phi reading"),
        (GEN, {"phi_interp": "gamma"}, "genminc campaigns take no phi reading"),
    ])
    def test_rule_raises_at_construction(self, base, change, message):
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**{**base, **change})

    @pytest.mark.parametrize("edge_prob", [0.0, 1.0])
    def test_edge_prob_endpoints_allowed(self, edge_prob):
        CampaignConfig(**{**self.GEN, "edge_prob": edge_prob})

    @pytest.mark.parametrize("base", [UMC, GEN, {**GEN, "conjecture": "wild"}])
    def test_flags_not_given_read_their_defaults(self, base):
        # the fields keep what was given; a report states the edge
        # probability and phi reading it ran with
        cfg = CampaignConfig(**base)
        assert (cfg.edge_prob, cfg.phi_interp) == (None, None)
        assert (cfg.draw_prob, cfg.phi_reading) == (0.5, "gamma")
        doc = cfg.to_json_dict()
        assert (doc["edgeProb"], doc["phiInterp"]) == (0.5, "gamma")

    @pytest.mark.parametrize("base", [
        UMC, {**UMC, "ell_values": [1, 2]},
        GEN, {**GEN, "edge_prob": 0.7},
        {**GEN, "conjecture": "wild"}, {**GEN, "conjecture": "wild", "phi_interp": "literal"},
    ])
    def test_replace_round_trip(self, base):
        # a copy passes the rules its original passed, with the same values
        cfg = CampaignConfig(**base)
        copy = dataclasses.replace(cfg, samples=2)
        assert copy == dataclasses.replace(cfg, samples=2) != cfg
        assert dataclasses.replace(copy, samples=cfg.samples) == cfg
        assert {**copy.to_json_dict(), "samples": cfg.samples} == cfg.to_json_dict()

    @pytest.mark.parametrize("base, change, n", [
        (UMC, {}, 8),
        (UMC, {"n_vertices": 12, "ell_values": [1]}, 12),
        (GEN, {"size_y": 6}, 8),
        (GEN, {"conjecture": "wild", "ell": 5, "size_y": 5}, 10),
    ])
    def test_sample_size_refused_by_vertex_cap(self, base, change, n, monkeypatch):
        # a sample holds N, or ell + M, vertices; refused before any is drawn
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 7)
        with pytest.raises(CapExceeded) as info:
            CampaignConfig(**{**base, **change})
        assert str(info.value) == (f"{n} vertices exceed the vertex cap of 7; the cap "
                                   "is the fixed constant graphs.GRAPH6_MAX_N, with no knob")

    def test_vertex_cap_itself_allowed(self, monkeypatch):
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 8)
        CampaignConfig(**self.UMC)
        CampaignConfig(**{**self.GEN, "ell": 3, "size_y": 5})

    def test_usage_errors_before_the_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 3)
        with pytest.raises(ValueError, match="edge probability"):
            CampaignConfig(**{**self.GEN, "edge_prob": 2.0})


class TestIsolatedDraws:
    """A draw with an isolated X-vertex has no X-saturating matching; the
    sampler skips it before the sweep builds any table."""

    def test_sweeps_find_nothing(self):
        b = BipartiteGraph(3, 4, [(0, 0), (0, 1), (2, 3)])
        assert saturating_count(b) == 0
        assert _marginal_table(b) is None

    @pytest.mark.parametrize("ell, m, p", [(3, 4, 0.3), (6, 9, 0.5), (2, 2, 0.2)])
    def test_sweep_sees_no_isolated_draw(self, ell, m, p):
        swept = []

        def sweep(b):
            swept.append(min(b.degrees_x))
            return saturating_count(b)

        for seed in range(40):
            _random_instance(ell, m, p, seed, sweep)
        assert swept and min(swept) >= 1

    def test_all_isolated_reaches_the_cap_unswept(self):
        def sweep(b):
            raise AssertionError("an isolated draw reached the sweep")

        with pytest.raises(CapExceeded, match="GENERATOR_RETRY_CAP"):
            _random_instance(20, 20, 0.0, 0, sweep)


class TestGenmincCampaign:
    def test_sharp_family_structure(self):
        fam = _sharp_family(4, 8, limit=10)
        # partitions of 4 into parts a with 8a divisible by 4: all parts
        assert len(fam) == 5
        for inst in fam:
            assert inst.size_x == 4 and inst.size_y == 8

    def test_sharp_family_is_exact(self):
        cfg = CampaignConfig(conjecture="genminc", samples=10, seed=0, ell=3,
                             size_y=6, family="sharp")
        rep = run_campaign(cfg)
        assert rep.instances >= 3
        assert not rep.violations
        assert all(abs(s) < 1e-9 for s in rep.worst_slack_bits)
        assert len(rep.sharp_candidates) == rep.instances

    def test_sharp_family_matches_eager_walk(self):
        for ell in range(1, 15):
            for m in range(ell, 2 * ell + 1):  # every divisibility pattern of a*M by ell
                eager = sharp_family_by_descent(ell, m, limit=10 ** 6)
                assert _sharp_family(ell, m, limit=10 ** 6) == eager
                for limit in (0, 1, 3):
                    assert _sharp_family(ell, m, limit) == eager[:limit]

    def test_sharp_family_walks_only_what_it_takes(self):
        # the eager walk listed all p(70) ~ 4e6 partitions of 140 into even
        # parts; the first member, 70 copies of K_{2,3}, counts at once
        start = time.perf_counter()
        fam = _sharp_family(140, 210, limit=1)
        assert [b.degrees_x for b in fam] == [[3] * 140]
        assert saturating_count(fam[0]) == math.perm(3, 2) ** 70
        cfg = CampaignConfig(conjecture="genminc", samples=1, seed=0, ell=140,
                             size_y=210, family="sharp")
        rep = run_campaign(cfg)
        assert rep.instances == 1 and not rep.violations
        assert abs(rep.worst_slack_bits[0]) < 1e-9  # the bound is exact on the family
        assert time.perf_counter() - start < 30

    def test_sharp_family_walks_long_partitions(self):
        # the first partition of 1200 has 1200 parts: deeper than the
        # recursion limit; its member is 1200 disjoint edges, one matching
        start = time.perf_counter()
        fam = _sharp_family(1200, 1200, 1)
        assert len(fam) == 1 and fam[0].num_edges == 1200
        assert saturating_count(fam[0]) == 1
        cfg = CampaignConfig(conjecture="genminc", samples=1, seed=0, ell=1200,
                             size_y=1200, family="sharp")
        rep = run_campaign(cfg)
        assert rep.instances == 1 and not rep.violations
        assert abs(rep.worst_slack_bits[0]) < 1e-9
        assert time.perf_counter() - start < 30

    def test_square_family_reduces_to_bregman(self):
        for inst in _sharp_family(3, 3, limit=10):
            assert abs(genminc_bound(inst) - bregman_bound(inst.degrees_x)) < 1e-12
            exact = log2_int(matching_profile(inst.to_graph())[3])
            assert abs(genminc_bound(inst) - exact) < 1e-9

    def test_random_batch_deterministic(self):
        cfg = CampaignConfig(conjecture="genminc", samples=40, seed=1, ell=3,
                             size_y=5, edge_prob=0.6)
        rep1 = run_campaign(cfg)
        rep2 = run_campaign(cfg)
        assert _without_runtime(rep1) == _without_runtime(rep2)
        assert rep1.instances == 40
        assert not rep1.violations

    def test_wild_literal_reading_is_falsified(self):
        # K_{1,2}: the gamma reading is tight, the printed literal one dips
        # below the exact count and must surface as a violation finding
        cfg = CampaignConfig(conjecture="wild", samples=1, seed=0, ell=1, size_y=2,
                             family="sharp", phi_interp="literal")
        rep = run_campaign(cfg)
        assert rep.violations
        violation = rep.violations[0]
        assert violation.bound == "wild-literal"
        reparsed = parse_bipartite(violation.graph)
        exact = log2_int(matching_profile(reparsed.to_graph())[violation.ell])
        assert wild_bound(matching_marginals(reparsed), "literal") < exact - 1e-9

    def test_wild_gamma_reading_holds_there(self):
        cfg = CampaignConfig(conjecture="wild", samples=1, seed=0, ell=1, size_y=2,
                             family="sharp", phi_interp="gamma")
        rep = run_campaign(cfg)
        assert not rep.violations


class TestReportContract:
    def test_json_schema(self):
        cfg = CampaignConfig(conjecture="umc", samples=3, seed=2, n_vertices=8, d=2)
        doc = run_campaign(cfg).to_json_dict()
        assert doc["schema"] == 1
        assert doc["conjecture"] == "umc"
        assert doc["instances"] == 3
        assert list(doc)[-1] == "runtimeSeconds"

    def test_violations_self_verify(self):
        cfg = CampaignConfig(conjecture="wild", samples=1, seed=0, ell=1, size_y=2,
                             family="sharp", phi_interp="literal")
        doc = run_campaign(cfg).to_json_dict()
        for v in doc["violations"]:
            reparsed = parse_bipartite(v["graph"])
            exact = log2_int(matching_profile(reparsed.to_graph())[v["ell"]])
            assert math.isclose(exact, v["lhsBits"], abs_tol=1e-12)
            value = wild_bound(matching_marginals(reparsed), "literal")
            assert math.isclose(value, v["rhsBits"], abs_tol=1e-12)
            assert value < exact - 1e-9

    def test_umc_samples_reproducible_in_isolation(self):
        from matchbound import emit_graph6, random_regular
        cfg = CampaignConfig(conjecture="umc", samples=4, seed=9, n_vertices=12, d=3)
        run_campaign(cfg)
        for idx in range(4):
            g = random_regular(12, 3, 9 + idx)
            assert parse_graph6(emit_graph6(g)) == g
