"""Each command does each exact computation once.

Engines are counted with a `MaskProfiler` subclass that registers every
instance, installed on `matchbound.counting` the way the benchmark's tracer
installs its own (`bench/spans.py`). The last test checks that every name
the tracer wraps still resolves.
"""

import sys
from pathlib import Path

import pytest

import matchbound
from matchbound import (CampaignConfig, as_bipartite, bound_report, random_regular,
                        run_campaign)
from matchbound.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def engines(monkeypatch):
    """The list of engines built while the test runs."""
    built = []
    base = matchbound.counting.MaskProfiler

    class CountingProfiler(base):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(matchbound.counting, "MaskProfiler", CountingProfiler)
    return built


def test_bound_sweep_builds_one_engine(engines):
    g = random_regular(14, 3, seed=5)
    assert as_bipartite(g) is None
    reports = bound_report(g, range(g.n // 2 + 1))
    assert [r.ell for r in reports] == list(range(8))
    assert len(engines) == 1


def test_bounds_command_builds_one_engine(engines, tmp_path, capsys):
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["bounds", "--graph", str(path), "--ell", "all", "--json"]) == 0
    assert len(engines) == 1


# the count and the marginals both come from the column DP over used-X masks
@pytest.mark.parametrize("conjecture, per_sample", [("genminc", 0), ("wild", 0)])
def test_random_campaign_engines_per_sample(engines, conjecture, per_sample):
    cfg = CampaignConfig(conjecture=conjecture, samples=6, seed=0, ell=4, size_y=6,
                         edge_prob=0.7)
    rep = run_campaign(cfg)
    assert rep.instances == 6
    assert len(engines) == per_sample * 6


def test_sharp_campaign_engines_per_sample(engines):
    cfg = CampaignConfig(conjecture="wild", samples=3, seed=0, ell=4, size_y=6,
                         family="sharp")
    rep = run_campaign(cfg)
    assert rep.instances > 0
    assert engines == []


def test_umc_campaign_engines_per_sample(engines):
    # a umc sample needs its whole profile, which only the engine gives
    cfg = CampaignConfig(conjecture="umc", samples=3, seed=0, n_vertices=12, d=3)
    rep = run_campaign(cfg)
    assert rep.instances == 3
    assert len(engines) == 3


def test_prooflab_builds_no_engine(engines, tmp_path, capsys):
    path = tmp_path / "lab.bip"
    path.write_text("B 3 4 8\n0 0\n0 1\n1 1\n1 2\n2 2\n2 3\n0 3\n1 0\n")
    assert main(["prooflab", "--graph", str(path), "--ell", "3"]) == 0
    assert capsys.readouterr().out
    assert engines == []


def test_tracer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    original = matchbound.counting.MaskProfiler
    tracer = spans.Tracer(matchbound)
    tracer.install()
    tracer.uninstall()
    assert matchbound.counting.MaskProfiler is original
    assert matchbound.cli.bound_report is bound_report
