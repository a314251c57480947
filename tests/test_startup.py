"""A process loads only the modules its command runs.

`import matchbound` imports each submodule when one of its names is first
read, and a CLI command reads the names it runs through the package, so a
module loads when the command first calls one of its names, not at dispatch.
Each check that needs a cold start runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchbound
from matchbound.cli import main

SRC = str(Path(matchbound.__file__).parents[1])

# the names `matchbound/__init__.py` imported eagerly, by their submodule
EXPORTED = {
    "bounds": ["BoundEntry", "BoundReport", "binary_entropy", "bound_report",
               "bregman_bound", "cgt_bound", "elementary_symmetric", "genminc_bound",
               "log2_int", "log_ratio", "phi_wild", "psi", "reports_to_csv",
               "thm_bipartite_bound", "thm_dregular_bound", "thm_general_bound",
               "umc_extremal_main_term", "wild_bound"],
    "campaigns": ["CampaignConfig", "CampaignReport", "Violation", "run_campaign"],
    "correspondence": ["AuditReport", "verify_fibers"],
    "counting": ["MarginalTable", "MaskProfiler", "enumerate_matchings", "kdd_profile",
                 "matching_marginals", "matching_profile", "profile_convolution",
                 "profile_to_json", "saturating_count", "umc_extremal_profile"],
    "errors": ["CapExceeded", "ParseError"],
    "graphs": ["BipartiteGraph", "Graph", "as_bipartite", "bipartite_double_cover",
               "complete_bipartite", "cycle_graph", "emit_bipartite", "emit_graph6",
               "parse_bipartite", "parse_edge_list", "parse_graph6", "random_regular"],
    "prooflab": ["ChainAudit", "DistributionAudit", "Enumeration",
                 "inequality_chain_audit", "rk_formula_audit", "zx_distribution_audit"],
}
BASE = {"matchbound", "matchbound.cli", "matchbound.errors", "matchbound.graphs",
        "matchbound.counting"}
TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"
K23 = "B 2 3 6\n0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n"


def fresh(script: str, *args: str) -> dict:
    """Run script in a new interpreter that sees the package under test; it
    prints one JSON document as its last line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


RUN_COMMAND = """
import json, sys
before = set(sys.modules)
from matchbound.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "package": sorted(m for m in sys.modules if m.startswith("matchbound")),
                  "new": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("argv, text, extra", [
    (["count"], TRIANGLE, set()),
    (["bounds", "--ell", "1"], TRIANGLE, {"matchbound.bounds"}),
    (["fibers", "--ell", "1"], TRIANGLE, {"matchbound.correspondence"}),
    (["prooflab", "--ell", "2"], K23, {"matchbound.bounds", "matchbound.prooflab"}),
    (["campaign", "--conjecture", "umc", "--N", "6", "--d", "3", "--samples", "1"], None,
     {"matchbound.bounds", "matchbound.campaigns"}),
])
def test_command_loads_its_modules(argv, text, extra, tmp_path):
    if text is not None:
        path = tmp_path / ("g.bip" if text.startswith("B") else "g.edges")
        path.write_text(text)
        argv = argv[:1] + ["--graph", str(path)] + argv[1:]
    run = fresh(RUN_COMMAND, *argv)
    assert run["code"] == 0
    assert set(run["package"]) == BASE | extra
    if argv[0] == "count":
        assert not {"csv", "dataclasses", "fractions"} & set(run["new"])


def test_import_loads_the_package_alone():
    run = fresh("""
import json, sys
import matchbound
print(json.dumps(sorted(m for m in sys.modules if m.startswith("matchbound"))))
""")
    assert run == ["matchbound"]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                          for n in names])
def test_exported_name_resolves(module, name):
    assert getattr(matchbound, name) is getattr(getattr(matchbound, module), name)
    assert name in dir(matchbound)
    assert module in dir(matchbound)


def test_names_resolve_in_a_fresh_process():
    # each read imports the defining module, and the same object comes back
    run = fresh("""
import json, sys
import matchbound
from matchbound import verify_fibers
out = [verify_fibers is sys.modules["matchbound.correspondence"].verify_fibers,
       matchbound.prooflab is sys.modules["matchbound.prooflab"],
       matchbound.Enumeration is matchbound.prooflab.Enumeration,
       "matchbound.campaigns" in sys.modules]
try:
    matchbound.no_such_name
except AttributeError as exc:
    out.append(str(exc))
print(json.dumps(out))
""")
    assert run == [True, True, True, False,
                   "module 'matchbound' has no attribute 'no_such_name'"]


class TestCommandNames:
    """The names a command takes from the package are read as attributes of
    the cli module at each call, so a wrapper installed there runs."""

    def test_wrapper_runs_and_original_after(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c5.edges"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        argv = ["fibers", "--graph", str(path), "--ell", "2"]
        calls = []
        original = matchbound.cli.verify_fibers
        assert original is matchbound.correspondence.verify_fibers
        with monkeypatch.context() as patch:
            patch.setattr(matchbound.cli, "verify_fibers",
                          lambda *a, **k: calls.append(a) or original(*a, **k))
            assert main(argv) == 0
        assert len(calls) == 1
        assert main(argv) == 0
        assert len(calls) == 1
        assert matchbound.cli.verify_fibers is original
        capsys.readouterr()

    def test_name_bound_before_the_module_loads_is_kept(self, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        run = fresh("""
import json, sys
import matchbound.cli as cli
calls = []
cli.bound_report = lambda *a, **k: calls.append(1) or []
code = cli.main(["bounds", "--graph", sys.argv[1], "--ell", "1", "--json"])
# the run read no other name of bounds, so reading one here loads the module
to_csv = cli.reports_to_csv
bounds = sys.modules["matchbound.bounds"]
print(json.dumps([code, calls, to_csv is bounds.reports_to_csv]))
""", str(path))
        assert run == [0, [1], True]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            matchbound.cli.no_such_name

    def test_package_attributes_are_not_lent(self):
        # `from matchbound.cli import main` probes cli.__path__: were it read
        # off the package, cli would pass for a package
        assert not hasattr(matchbound.cli, "__path__")
