import functools
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchbound
from matchbound import (Graph, complete_bipartite, cycle_graph, emit_bipartite,
                        emit_edge_list, emit_graph6, random_regular)
from matchbound.cli import main

C6_EDGES = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
K33_EDGES = ("6 9\n" + "\n".join(f"{x} {3 + y}" for x in range(3) for y in range(3))
             + "\n")
MARGINAL_BIP = "B 2 3 4\n0 0\n0 1\n1 1\n1 2\n"


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text(C6_EDGES)
    return str(path)


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.edges"
    path.write_text(K33_EDGES)
    return str(path)


@pytest.fixture
def bip_file(tmp_path):
    path = tmp_path / "example.bip"
    path.write_text(MARGINAL_BIP)
    return str(path)


class TestCount:
    def test_table(self, c6_file, capsys):
        assert main(["count", "--graph", c6_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["0 1", "1 6", "2 9", "3 2"]

    def test_json(self, c6_file, capsys):
        assert main(["count", "--graph", c6_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == ["1", "6", "9", "2"]

    def test_graph6_input(self, tmp_path, capsys):
        path = tmp_path / "c6.g6"
        path.write_text(emit_graph6(cycle_graph(6)) + "\n")
        assert main(["count", "--graph", str(path)]) == 0
        assert "3 2" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(C6_EDGES))
        assert main(["count", "--graph", "-"]) == 0
        assert "2 9" in capsys.readouterr().out


class TestBounds:
    def test_csv_has_bregman_equality(self, k33_file, capsys):
        assert main(["bounds", "--graph", k33_file, "--ell", "3", "--csv"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        bregman = next(r for r in rows if r[2] == "bregman")
        assert abs(float(bregman[3]) - 2.585) < 1e-3
        assert abs(float(bregman[5])) < 1e-9

    def test_json_all_ell(self, c6_file, capsys):
        assert main(["bounds", "--graph", c6_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 4

    @pytest.mark.parametrize("ell", ["-1", "4", "-1,99", "0,4", "99"])
    def test_ell_out_of_range(self, c6_file, ell, capsys):
        assert main(["bounds", "--graph", c6_file, f"--ell={ell}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ell must lie in 0..3" in captured.err

    def test_ell_edges_of_range(self, c6_file, capsys):
        assert main(["bounds", "--graph", c6_file, "--ell", "0,3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["ell"] for r in doc["reports"]] == [0, 3]

    def test_out_file(self, c6_file, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--graph", c6_file, "--ell", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("graphId,ell,boundName")


class TestAudits:
    def test_marginals(self, bip_file, capsys):
        assert main(["marginals", "--graph", bip_file, "--ell", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"][0][0] == "2/3"

    def test_double_cover(self, c6_file, capsys):
        assert main(["double-cover", "--graph", c6_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("B 6 6 12")

    def test_fibers(self, c6_file, capsys):
        assert main(["fibers", "--graph", c6_file, "--ell", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    @pytest.mark.parametrize("ell", ["-1", "3"])
    def test_fibers_ell_out_of_range(self, tmp_path, ell, capsys):
        path = tmp_path / "c4.edges"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        assert main(["fibers", "--graph", str(path), f"--ell={ell}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ell must lie in 0..N/2 = 0..2" in captured.err
        assert "Traceback" not in captured.err

    def test_prooflab(self, bip_file, capsys):
        assert main(["prooflab", "--graph", bip_file, "--ell", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chain"]["passed"] is True
        assert all(a["passed"] for a in doc["sizeDistributions"])
        assert all(a["passed"] for a in doc["availabilityFormulas"])

    @pytest.mark.parametrize("command", ["marginals", "prooflab"])
    @pytest.mark.parametrize("ell", ["1", "3"])
    def test_ell_must_equal_size_x(self, bip_file, command, ell, capsys):
        assert main([command, "--graph", bip_file, "--ell", ell]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --ell must equal |X| = 2, got {ell}\n"

    @pytest.mark.parametrize("command, verb", [("marginals", "need"),
                                               ("prooflab", "needs")])
    def test_bipartite_input_required(self, c6_file, command, verb, capsys):
        assert main([command, "--graph", c6_file, "--ell", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {command} {verb} a bipartite input "
                                "(--format bipartite)\n")


class TestCampaignCommand:
    def test_clean_run_exit_zero(self, capsys):
        code = main(["campaign", "--conjecture", "umc", "--d", "3", "--N", "12",
                     "--samples", "10", "--seed", "1", "--strict"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []

    def test_violation_with_strict_exits_three(self, capsys):
        code = main(["campaign", "--conjecture", "wild", "--ell", "1", "--M", "2",
                     "--family", "sharp", "--samples", "1", "--seed", "0",
                     "--phi-interp", "literal", "--strict"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"]

    def test_violation_without_strict_exits_zero(self, capsys):
        code = main(["campaign", "--conjecture", "wild", "--ell", "1", "--M", "2",
                     "--family", "sharp", "--samples", "1", "--seed", "0",
                     "--phi-interp", "literal"])
        assert code == 0

    def test_deterministic_output_files(self, tmp_path):
        args = ["campaign", "--conjecture", "umc", "--d", "2", "--N", "8",
                "--samples", "20", "--seed", "5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        doc1.pop("runtimeSeconds")
        doc2.pop("runtimeSeconds")
        assert json.dumps(doc1) == json.dumps(doc2)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["count"]) == 1
        assert main(["unknown-command"]) == 1

    def test_missing_file(self):
        assert main(["count", "--graph", "/nonexistent/g.edges"]) == 1

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("2 1\n0 0\n")
        assert main(["count", "--graph", str(path)]) == 1

    def test_not_utf8(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe3 3\n")
        assert main(["count", "--graph", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path} is not UTF-8 text\n")
        # stdin decodes strictly, or (in the C locale) to lone surrogates
        for errors in ("strict", "surrogateescape"):
            stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe3 3\n"), "utf-8", errors)
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["count", "--graph", "-"]) == 1
            assert capsys.readouterr() == ("", "error: stdin is not UTF-8 text\n")

    def test_beyond_64_vertices(self, tmp_path, capsys):
        big = tmp_path / "big.edges"
        big.write_text("70 1\n0 1\n")
        assert main(["count", "--graph", str(big)]) == 0
        assert capsys.readouterr().out.splitlines() == \
            ["0 1", "1 1"] + [f"{ell} 0" for ell in range(2, 36)]

    def test_infeasible_exit_two(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "k66.edges"
        path.write_text(emit_edge_list(complete_bipartite(6, 6).to_graph()))
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        assert main(["count", "--graph", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("infeasible: frontier state cap of 4 exceeded: ")
        assert " states at sweep step " in err and " of 12; " in err
        assert err.rstrip().endswith("raise it with MATCHBOUND_STATE_CAP")
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert main(["count", "--graph", str(path)]) == 0

    def test_marginals_state_cap(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "k66.bip"
        path.write_text(emit_bipartite(complete_bipartite(6, 6)))
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        assert main(["marginals", "--graph", str(path), "--ell", "6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("infeasible: column state cap of 4 exceeded: ")
        assert err.rstrip().endswith("raise it with MATCHBOUND_STATE_CAP")
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert main(["marginals", "--graph", str(path), "--ell", "6"]) == 0

    def test_memo_cap_env(self, tmp_path, monkeypatch, capsys):
        # The retired MATCHBOUND_MEMO_CAP caps nothing; the state cap does.
        path = tmp_path / "k66.edges"
        path.write_text(emit_edge_list(complete_bipartite(6, 6).to_graph()))
        monkeypatch.setenv("MATCHBOUND_MEMO_CAP", "4")
        assert main(["count", "--graph", str(path)]) == 0
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        assert main(["count", "--graph", str(path)]) == 2
        monkeypatch.delenv("MATCHBOUND_STATE_CAP")
        assert main(["count", "--graph", str(path)]) == 0

    def test_campaign_bad_config(self):
        assert main(["campaign", "--conjecture", "umc", "--d", "3", "--N", "10",
                     "--samples", "1", "--seed", "0"]) == 1

    def test_state_cap_env_not_an_integer(self, c6_file, monkeypatch, capsys):
        # neither a non-integer nor a cap below one state is a cap
        for value in ("abc", "0", "-3"):
            monkeypatch.setenv("MATCHBOUND_STATE_CAP", value)
            assert main(["count", "--graph", c6_file]) == 1
            err = capsys.readouterr().err
            assert "MATCHBOUND_STATE_CAP" in err and repr(value) in err

    def test_campaign_negative_samples(self, capsys):
        assert main(["campaign", "--conjecture", "umc", "--d", "3", "--N", "12",
                     "--samples", "-5"]) == 1
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize("conjecture, ell", [
        ("umc", "x"), ("umc", "1,x"), ("genminc", "x"), ("wild", "x"), ("genminc", "2,3")])
    def test_campaign_bad_ell(self, conjecture, ell, capsys):
        assert main(["campaign", "--conjecture", conjecture, "--N", "12", "--d", "3",
                     "--ell", ell, "--M", "4", "--samples", "1"]) == 1
        err = capsys.readouterr().err
        assert "bad --ell value" in err and "invalid literal" not in err

    @pytest.mark.parametrize("edge_prob", ["1.5", "-0.5", "nan"])
    def test_campaign_edge_prob_outside_unit_interval(self, edge_prob, capsys):
        assert main(["campaign", "--conjecture", "genminc", "--ell", "3", "--M", "4",
                     f"--edge-prob={edge_prob}", "--samples", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: edge probability must lie in [0, 1], got {edge_prob}\n"

    @pytest.mark.parametrize("argv, message", [
        (["umc", "--N", "0", "--d", "1", "--samples", "0"], "N must be positive, got 0"),
        (["umc", "--N", "-4", "--d", "1", "--samples", "1"], "N must be positive, got -4"),
        (["umc", "--N", "12", "--d", "3", "--M", "99"],
         "umc campaigns take no single ell or M"),
        (["genminc", "--ell", "2", "--M", "3", "--N", "5", "--d", "7"],
         "genminc campaigns take no N, d or list of ell values"),
        (["wild", "--ell", "2", "--M", "3", "--d", "3"],
         "wild campaigns take no N, d or list of ell values"),
    ])
    def test_campaign_config_refused(self, argv, message, capsys):
        # refused when the config is built, not ignored or failed late
        assert main(["campaign", "--conjecture", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bounds_json_and_csv_exclusive(self, c6_file, capsys):
        assert main(["bounds", "--graph", c6_file, "--json", "--csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "not allowed with argument" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestCapMessages:
    """Every feasibility cap exits 2 with a message that gives the value
    reached and names the knob that raises the cap, or says there is none."""

    def _run(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        return err

    def test_fiber_count_cap(self, tmp_path, capsys):
        path = tmp_path / "k12.edges"
        path.write_text(emit_edge_list(Graph(12, itertools.combinations(range(12), 2))))
        assert self._run(["fibers", "--graph", str(path), "--ell", "3"], capsys) == (
            "infeasible: 13860 matchings exceed the audit cap 10000; the cap is the "
            "fixed constant correspondence.COUNT_CAP, with no knob\n")

    def test_fiber_cover_cap(self, tmp_path, capsys):
        path = tmp_path / "k10.edges"
        path.write_text(emit_edge_list(Graph(10, itertools.combinations(range(10), 2))))
        assert self._run(["fibers", "--graph", str(path), "--ell", "5"], capsys) == (
            "infeasible: 1334961 cover matchings exceed the audit cap 100000; the cap "
            "is the fixed constant correspondence.COVER_CAP, with no knob\n")

    def test_prooflab_caps(self, tmp_path, capsys):
        path = tmp_path / "k56.bip"
        path.write_text(emit_bipartite(complete_bipartite(5, 6)))
        assert self._run(["prooflab", "--graph", str(path), "--ell", "5"], capsys) == (
            "infeasible: enumeration audits are capped at ell <= 4, M <= 5, got ell = 5, "
            "M = 6; the caps are the fixed constants prooflab.MAX_ELL and "
            "prooflab.MAX_M, with no knob\n")

    @pytest.mark.parametrize("conjecture", ["genminc", "wild"])
    def test_generator_retry_cap(self, conjecture, capsys):
        argv = ["campaign", "--conjecture", conjecture, "--ell", "3", "--M", "4",
                "--edge-prob", "0", "--samples", "1"]
        assert self._run(argv, capsys) == (
            "infeasible: no usable instance in 1000 draws (ell=3, M=4, p=0.0); the draw "
            "cap is the fixed constant campaigns.GENERATOR_RETRY_CAP, so raise "
            "--edge-prob: a draw with an isolated X-vertex or no X-saturating matching "
            "is rejected\n")

    def test_random_regular_attempts(self, monkeypatch, capsys):
        monkeypatch.setattr(matchbound.campaigns, "random_regular",
                            functools.partial(random_regular, max_attempts=3))
        argv = ["campaign", "--conjecture", "umc", "--N", "16", "--d", "8", "--samples", "1"]
        assert self._run(argv, capsys) == (
            "infeasible: no simple 8-regular pairing found in 3 attempts; raise it with "
            "random_regular(max_attempts=...), which no CLI flag sets\n")


class TestDispatchSequence:
    def test_reused_parser_matches_fresh_processes(self, c6_file, monkeypatch, capsys):
        # one process dispatches every command in turn; each must behave as
        # in a process of its own
        monkeypatch.setenv("COLUMNS", "80")
        commands = [
            ["campaign", "--conjecture", "wild", "--ell", "3", "--M", "4",
             "--samples", "2", "--seed", "1"],
            ["count", "--graph", c6_file],
            ["count", "--graph", c6_file, "--ell", "2"],
            ["--help"],
            ["count", "--graph", c6_file, "--json"],
        ]

        def normalise(argv, out):  # campaign reports differ only in runtimeSeconds
            if argv[0] != "campaign" or not out:
                return out
            doc = json.loads(out)
            del doc["runtimeSeconds"]
            return doc

        env = dict(os.environ, PYTHONPATH=str(Path(matchbound.__file__).parents[1]))
        codes = []
        for argv in commands:
            code = main(argv)
            codes.append(code)
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "matchbound.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=60)
            assert code == fresh.returncode, argv
            assert normalise(argv, out) == normalise(argv, fresh.stdout), argv
            assert err == fresh.stderr, argv
        assert codes == [0, 0, 1, 0, 0]
