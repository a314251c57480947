import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchbound
from matchbound import Graph, complete_bipartite, cycle_graph, emit_bipartite, emit_graph6
from matchbound.cli import _json_text, main
from oracles import emit_edge_list

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


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), st.text())
JSON_DOCS = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=40)


class TestJsonWriter:
    """Every report is written by one walk that gives the text of
    json.dumps(doc, indent=2)."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_DOCS)
    @example({"": [], "a": {}, "b": (), "c": [[], {}, ()]})
    @example([-0.0, math.nan, math.inf, -math.inf, 2 ** 64, -2 ** 100, True, False, None])
    @example({"\xe9\x00\x1f\u2028\ud800\U0001f600": ["\"\\\n\t\x7f", 1e300, 5e-324]})
    @example((1, (2, ()), {"k": (None,)}))
    @example("top-level text")
    def test_matches_json_dumps_indent_2(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{1, 2}, {"a": [frozenset()]}, [1, {2}], {1: 2}])
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)


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


class TestFormatTable:
    """--format defaults from how the --graph path ends: .g6 is graph6, .bip
    and .bg are bipartite, and anything else, stdin included, is an edge list."""

    @pytest.mark.parametrize("name, fmt", [
        ("x.g6", "g6"), ("x.bip", "bipartite"), ("x.bg", "bipartite"),
        ("x.edges", "edges"), ("-", "edges"), ("g6", "edges"), (".g6", "g6"),
        ("bip", "edges"), (".bg", "bipartite"), ("x.g6.txt", "edges"),
        ("x.G6", "edges"),
    ])
    def test_default_by_name(self, name, fmt, tmp_path, monkeypatch, capsys):
        assert self._chosen(name, [], tmp_path, monkeypatch, capsys) == [fmt]

    @pytest.mark.parametrize("name, fmt", [("x.g6", "edges"), ("x.edges", "bipartite"),
                                           ("-", "g6")])
    def test_flag_overrides_name(self, name, fmt, tmp_path, monkeypatch, capsys):
        assert self._chosen(name, ["--format", fmt], tmp_path, monkeypatch,
                            capsys) == [fmt]

    @staticmethod
    def _chosen(name, flags, tmp_path, monkeypatch, capsys):
        """The formats whose parsers ran, each replaced on the cli module as a
        tracer replaces it: the parser is looked up at each call."""
        chosen = []
        for fmt, attr in (("g6", "parse_graph6"), ("bipartite", "parse_bipartite"),
                          ("edges", "parse_edge_list")):
            monkeypatch.setattr(matchbound.cli, attr,
                                lambda text, fmt=fmt: chosen.append(fmt) or cycle_graph(3))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        if name != "-":
            (tmp_path / name).write_text("")
        assert main(["count", "--graph", name, *flags]) == 0
        assert capsys.readouterr().out == "0 1\n1 3\n"
        return chosen


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

    def test_wild_row_refused_by_column_cap(self, tmp_path, capsys):
        # the wild bound needs 2^21 column states; only its row goes without a value
        path = tmp_path / "path21.bip"
        path.write_text("B 21 22 42\n"
                        + "".join(f"{x} {x}\n{x} {x + 1}\n" for x in range(21)))
        assert main(["bounds", "--graph", str(path), "--ell", "21", "--csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[2] for r in rows] == ["cgt", "dregular", "general", "bregman",
                                        "bipartite", "genminc", "wild-gamma"]
        assert rows[-1][3:] == ["", rows[0][4], "", "true"]
        assert all(r[3] for r in rows if r[6] == "true" and r[2] != "wild-gamma")

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

    @pytest.mark.parametrize("argv, stdout", [
        (["count"], "0 1\n1 4\n2 3\n"),
        (["double-cover"], "B 5 5 8\n0 2\n0 3\n1 3\n1 4\n2 0\n3 0\n3 1\n4 1\n"),
        (["fibers", "--ell", "2"], None),
    ])
    def test_bipartite_input_flattened(self, bip_file, tmp_path, argv, stdout, capsys):
        # X keeps its indices and Y-vertex y becomes |X| + y, as in this edge list
        flat = tmp_path / "example.edges"
        flat.write_text("5 4\n0 2\n0 3\n1 3\n1 4\n")
        assert main([argv[0], "--graph", bip_file, *argv[1:]]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert main([argv[0], "--graph", str(flat), *argv[1:]]) == 0
        assert out == capsys.readouterr().out.replace(str(flat), bip_file)
        if stdout is None:
            assert json.loads(out)["passed"] is True
        else:
            assert out == stdout

    def test_prooflab_ell_above_size_y(self, tmp_path, capsys):
        path = tmp_path / "tall.bip"
        path.write_text("B 3 2 6\n0 0\n0 1\n1 0\n1 1\n2 0\n2 1\n")
        assert main(["prooflab", "--graph", str(path), "--ell", "3"]) == 1
        assert capsys.readouterr() == ("", "error: need ell <= size_y, got 3 > 2\n")

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

    def test_missing_file_names_flag_and_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "g.edges"
        assert main(["count", "--graph", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot read --graph {path}: No such file or directory\n")

    def test_directory_as_graph(self, tmp_path, capsys):
        assert main(["count", "--graph", str(tmp_path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot read --graph {tmp_path}: Is a directory\n")

    def test_out_in_missing_directory(self, c6_file, tmp_path, capsys):
        out = tmp_path / "missing" / "o.txt"
        assert main(["count", "--graph", c6_file, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write --out {out}: No such file or directory\n")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("2 1\n0 0\n")
        assert main(["count", "--graph", str(path)]) == 1

    @pytest.mark.parametrize("fmt, text, message", [
        ("edges", "1_0 0\n", "malformed header: '1_0 0'"),
        ("edges", "2 1\n٠ ١\n", "malformed edge line: '٠ ١'"),
        ("bipartite", "B +1 1 1\n0 0\n", "malformed header: 'B +1 1 1'")])
    def test_number_not_ascii_digits(self, fmt, text, message, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["count", "--graph", "-", "--format", fmt]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    def test_prooflab_state_cap(self, bip_file, monkeypatch, capsys):
        # the proof lab's marginals come from the column DP: 2^|X| = 4 slots
        argv = ["prooflab", "--graph", bip_file, "--ell", "2"]
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "3")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "infeasible: column state cap of 3 exceeded: 2^2 states at column 0 of 3; "
            "raise it with MATCHBOUND_STATE_CAP\n"))
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "abc")
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: MATCHBOUND_STATE_CAP must be an integer, got 'abc'\n")
        monkeypatch.setenv("MATCHBOUND_STATE_CAP", "4")
        assert main(argv) == 0

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
        (["umc", "--N", "12", "--d", "3", "--family", "sharp"],
         "umc campaigns take no sharp family: they draw random regular graphs"),
        (["umc", "--N", "12", "--d", "3", "--edge-prob", "0.3"],
         "umc campaigns take no edge probability: they draw random regular graphs"),
        (["umc", "--N", "12", "--d", "3", "--phi-interp", "gamma"],
         "umc campaigns take no phi reading: only the wild bound reads phi"),
        (["genminc", "--ell", "2", "--M", "3", "--phi-interp", "literal"],
         "genminc campaigns take no phi reading: only the wild bound reads phi"),
        (["umc", "--N", "6", "--d", "-3"], "d must be positive, got -3"),
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

    @pytest.mark.parametrize("command", ["bounds", "campaign"])
    def test_phi_readings(self, command, capsys):
        assert main([command, "--phi-interp", "bogus"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        # newer Pythons print the choices unquoted
        assert re.search(r"error: argument --phi-interp: invalid choice: 'bogus' "
                         r"\(choose from '?gamma'?, '?literal'?\)\n", err)
        assert main([command, "--help"]) == 0
        assert "\n  --phi-interp {gamma,literal}\n" in capsys.readouterr().out


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

    @pytest.mark.parametrize("fmt, text, n", [("edges", "100000000 0\n", 100000000),
                                              ("bipartite", "B 1 100000000 0\n", 100000001)])
    def test_vertex_cap_before_allocation(self, fmt, text, n, monkeypatch, capsys):
        # refused by the constructor before any adjacency list is built
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert self._run(["count", "--graph", "-", "--format", fmt], capsys) == (
            f"infeasible: {n} vertices exceed the vertex cap of 258047; the cap is the "
            "fixed constant graphs.GRAPH6_MAX_N, with no knob\n")

    @pytest.mark.parametrize("argv, n", [
        (["--conjecture", "genminc", "--ell", "1", "--M", "1000000"], 1000001),
        (["--conjecture", "umc", "--N", "1000000", "--d", "1"], 1000000),
    ])
    def test_campaign_vertex_cap(self, argv, n, capsys):
        assert self._run(["campaign", *argv], capsys) == (
            f"infeasible: {n} vertices exceed the vertex cap of 258047; the cap is the "
            "fixed constant graphs.GRAPH6_MAX_N, with no knob\n")

    def test_double_cover_vertex_cap(self, tmp_path, monkeypatch, capsys):
        # the cover has 2n vertices: with the real cap, n > 129023 is refused
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 9)
        path = tmp_path / "c5.edges"
        path.write_text(emit_edge_list(cycle_graph(5)))
        assert self._run(["double-cover", "--graph", str(path)], capsys) == (
            "infeasible: 10 vertices exceed the vertex cap of 9; the cap is the "
            "fixed constant graphs.GRAPH6_MAX_N, with no knob\n")

    def test_random_regular_attempts(self, monkeypatch, capsys):
        monkeypatch.setattr(matchbound.graphs, "REGULAR_RETRY_CAP", 3)
        argv = ["campaign", "--conjecture", "umc", "--N", "16", "--d", "8", "--samples", "1"]
        assert self._run(argv, capsys) == (
            "infeasible: no simple 8-regular pairing found in 3 attempts; the cap is the "
            "fixed constant graphs.REGULAR_RETRY_CAP, with no knob\n")


class TestDispatchSequence:
    def test_reused_parser_matches_fresh_processes(self, c6_file, tmp_path, monkeypatch,
                                                   capsys):
        # one process dispatches every command in turn; each must behave as
        # in a process of its own. Under `python -m` the CLI is __main__, and
        # bounds and prooflab load their modules through it
        monkeypatch.setenv("COLUMNS", "80")
        k23 = tmp_path / "k23.bip"
        k23.write_text(emit_bipartite(complete_bipartite(2, 3)))
        commands = [
            ["campaign", "--conjecture", "wild", "--ell", "3", "--M", "4",
             "--samples", "2", "--seed", "1"],
            ["count", "--graph", c6_file],
            ["count", "--graph", c6_file, "--ell", "2"],
            ["--help"],
            ["count", "--graph", c6_file, "--json"],
            ["bounds", "--graph", c6_file, "--ell", "all", "--json"],
            ["prooflab", "--graph", str(k23), "--ell", "2"],
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
        assert codes == [0, 0, 1, 0, 0, 0, 0]
