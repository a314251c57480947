"""Tests of the benchmark's references, checks, encoders and span summary.

Run with `python -m pytest bench -q` from the repository root.
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

import refs
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from matchbound.cli import cli_dispatch  # noqa: E402

C6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
K33 = [(x, 3 + y) for x in range(3) for y in range(3)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(argv) == 0
    return out.getvalue()


# -- independent counts -------------------------------------------------------

def test_edge_subset_profiles():
    assert refs.profile_by_edge_subsets(6, C6) == [1, 6, 9, 2]
    assert refs.profile_by_edge_subsets(6, K33) == [1, 9, 18, 6]
    assert refs.profile_by_edge_subsets(3, []) == [1, 0]


def test_subset_dp_agrees_with_edge_subsets_on_covers():
    rng = random.Random(3)
    for n in range(3, 9):
        edges = workloads.gnm_edges(n, n, rng)
        cover = workloads.double_cover_edges(edges)
        flat = [(x, n + y) for x, y in cover]
        assert refs.bipartite_profile(n, n, cover) == refs.profile_by_edge_subsets(2 * n, flat)


def test_kdd_union_closed_form():
    assert refs.kdd_union_profile(3, 1) == [1, 9, 18, 6]
    assert refs.kdd_union_profile(2, 2) == [1, 8, 20, 16, 4]


# -- checks catch what they claim to catch -------------------------------------

def test_check_profile():
    assert refs.check_profile([1, 6, 9, 2], 6, C6) == []
    assert refs.check_profile([2, 6, 9, 2], 6, C6)          # c0
    assert refs.check_profile([1, 7, 9, 2], 6, C6)          # c1
    assert refs.check_profile([1, 6, 8, 2], 6, C6)          # c2
    assert refs.check_profile([1, 6, 9], 6, C6)             # length
    assert any("Newton" in p for p in refs.check_profile([1, 6, 9, 10], 6, C6))


def test_check_cover_profile():
    cover = refs.bipartite_profile(6, 6, workloads.double_cover_edges(C6))
    assert cover == [1, 12, 54, 112, 105, 36, 4]
    assert refs.check_cover_profile(cover, [1, 6, 9, 2]) == []
    assert refs.check_cover_profile([1, 12, 54, 112, 80, 36, 4], [1, 6, 9, 2])


def _bound_doc(slack, name="general", exact="9"):
    entry = {"name": name, "applicable": True, "valueBits": 1.0,
             "slackBits": slack, "conjectural": name in ("genminc", "wild-gamma")}
    reports = [{"ell": ell, "exactCount": c, "entries": [entry]}
               for ell, c in enumerate(["1", "6", exact, "2"])]
    return json.dumps({"schema": 1, "reports": reports})


def test_check_bound_table():
    prof = [1, 6, 9, 2]
    assert refs.check_bound_table(_bound_doc(0.5), prof) == []
    assert refs.check_bound_table(_bound_doc(-1e-12), prof) == []
    assert refs.check_bound_table(_bound_doc(-1e-6), prof)
    assert refs.check_bound_table(_bound_doc(-1.0, name="genminc"), prof) == []
    assert refs.check_bound_table(_bound_doc(0.5, exact="8"), prof)


def _campaign_doc(worst, violations=(), instances=None):
    return json.dumps({"instances": len(worst) if instances is None else instances,
                       "worstSlackBits": list(worst), "violations": list(violations),
                       "runtimeSeconds": 0.25})


def test_check_campaign():
    assert refs.check_campaign(_campaign_doc([0.0, 0.0]), 2, "umc", "random") == []
    assert refs.check_campaign(_campaign_doc([0.0, -0.1]), 2, "umc", "random")
    assert refs.check_campaign(_campaign_doc([0.0, -0.1], [{}]), 2, "umc", "random") == []
    assert refs.check_campaign(_campaign_doc([0.3], instances=2), 1, "genminc", "random")
    assert refs.check_campaign(_campaign_doc([1e-12, -1e-12]), 2, "wild", "sharp") == []
    assert refs.check_campaign(_campaign_doc([1e-6]), 1, "genminc", "sharp")


def test_strip_runtime():
    a = _campaign_doc([0.0])
    b = a.replace("0.25", "0.5")
    assert a != b and refs.strip_runtime(a) == refs.strip_runtime(b)


def test_check_fibers():
    doc = {"passed": True, "totals": {"countSquared": "81", "coverCount": "100"}}
    assert refs.check_fibers(json.dumps(doc), 9, 100) == []
    assert refs.check_fibers(json.dumps(doc), 8, 100)
    assert refs.check_fibers(json.dumps(doc), 9, 99)
    doc["passed"] = False
    assert refs.check_fibers(json.dumps(doc), 9, 100)


def _prooflab_doc(values, zx_ok=True):
    labels = ["exact-entropy"] + [f"c{i}" for i in range(1, len(values))]
    return json.dumps({
        "chain": {"passed": True, "checkpoints": [
            {"label": lab, "valueBits": v} for lab, v in zip(labels, values)]},
        "sizeDistributions": [{"x": 0, "passed": zx_ok}],
        "availabilityFormulas": [{"x": 0, "passed": True}]})


def test_check_prooflab():
    base = math.log2(6)
    assert refs.check_prooflab(_prooflab_doc([base, base + 0.1, base + 0.2]), 6) == []
    assert refs.check_prooflab(_prooflab_doc([base, base - 0.1]), 6)
    assert refs.check_prooflab(_prooflab_doc([base, base + 0.1]), 5)
    assert refs.check_prooflab(_prooflab_doc([base], zx_ok=False), 6)


# -- the checks pass on the program's own outputs --------------------------------

def test_checks_pass_on_program_outputs(tmp_path):
    rng = random.Random(1)
    edges = workloads.random_regular_edges(12, 3, rng)
    g6 = tmp_path / "g.g6"
    g6.write_text(workloads.graph6_text(12, edges))
    counts = refs.parse_count_table(run_cli(["count", "--graph", str(g6)]))
    assert counts == refs.profile_by_edge_subsets(12, edges)
    assert refs.check_profile(counts, 12, edges) == []
    table = run_cli(["bounds", "--graph", str(g6), "--ell", "all", "--json"])
    assert refs.check_bound_table(table, counts) == []

    fib = tmp_path / "f.edges"
    fib.write_text(workloads.edge_list_text(6, C6))
    cover = refs.bipartite_profile(6, 6, workloads.double_cover_edges(C6))
    text = run_cli(["fibers", "--graph", str(fib), "--ell", "2"])
    assert refs.check_fibers(text, 9, cover[4]) == []

    lab = workloads.tiny_bipartite_edges(3, 4, 8, 6, rng)
    bip = tmp_path / "b.bip"
    bip.write_text(workloads.bipartite_text(3, 4, lab))
    text = run_cli(["prooflab", "--graph", str(bip), "--ell", "3"])
    assert refs.bipartite_profile(3, 4, lab)[3] == 6
    assert refs.check_prooflab(text, 6) == []

    text = run_cli(["campaign", "--conjecture", "wild", "--ell", "8", "--M", "12",
                    "--family", "sharp", "--samples", "5"])
    assert refs.check_campaign(text, 5, "wild", "sharp") == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name, tmp_path):
    a = workloads.WORKLOADS[name](7, tmp_path)
    b = workloads.WORKLOADS[name](7, tmp_path)
    c = workloads.WORKLOADS[name](8, tmp_path)
    assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert [i.text for i in a.inputs] == [i.text for i in b.inputs]
    assert ([op.argv for op in a.ops], [i.text for i in a.inputs]) \
        != ([op.argv for op in c.ops], [i.text for i in c.inputs])
    assert len(a.ops) >= workloads.MIN_OPS_PER_PASS


# -- encoders and spans ------------------------------------------------------------

def test_graph6_text():
    assert workloads.graph6_text(3, [(0, 1), (0, 2), (1, 2)]) == "Bw\n"
    assert workloads.graph6_text(2, []) == "A?\n"


def test_self_times_subtract_direct_children():
    tracer = spans.Tracer(package=None)
    tracer.spans = [["cli.dispatch", 0.0, 10.0, -1, 0],
                    ["bounds.report", 1.0, 9.0, 0, 0],
                    ["counting.profile", 2.0, 5.0, 1, 0],
                    ["counting.profile", 5.0, 6.0, 1, 0]]
    assert tracer.self_times() == {"cli.dispatch": 2.0, "bounds.report": 4.0,
                                   "counting.profile": 4.0}
