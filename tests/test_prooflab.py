import itertools
import json
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, CapExceeded, Enumeration, binary_entropy,
                        complete_bipartite, emit_bipartite, inequality_chain_audit,
                        log_ratio, matching_marginals, parse_bipartite,
                        rk_formula_audit, thm_bipartite_bound, zx_distribution_audit)
from matchbound.bounds import LOG2E
from matchbound.cli import main
from matchbound.counting import entropy_bits
from matchbound.prooflab import TOL, _f, _table_term
from oracles import order_walk, tiny_bipartite_catalog

MARGINAL_EXAMPLE = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
CATALOG = tiny_bipartite_catalog()
# reports recorded from the enumeration that walked every (order, matching) pair
GOLDEN = json.loads((Path(__file__).parent / "data" / "prooflab_reports.json").read_text())


# individual proof steps, each summed as in its recorded repr

def _g(t: float, d: int) -> float:
    """t*[ _f(t) - log2(d*t) ], the per-edge term of the degree split."""
    if t == 1.0:
        return LOG2E - math.log2(d)
    return t * _f(t) - t * math.log2(d * t)


def step_refinement_audit(enum: Enumeration) -> list[dict]:
    """Per-(x, y) refinement: the table value F is at most the midpoint sum
    of U(j/(ell-1)), which is at most the closed concave form."""
    ell = enum.ell
    results = []
    for x in range(ell):
        _q, q_cond, r_full = enum.size_tables(x)
        for y in range(enum.m):
            p_xy = enum.p[x][y]
            if not p_xy:
                continue
            f_xy = _table_term(q_cond[y], r_full, y)
            a = float(enum.mu[y] - p_xy)
            c = float(enum.nu[y] + p_xy)
            if ell == 1:
                midpoint = math.log2(c)
            else:
                midpoint = sum(math.log2(a * (j / (ell - 1)) + c)
                               for j in range(ell)) / ell
            endpoint = _f(c) - LOG2E
            results.append({
                "x": x, "y": y, "table": f_xy, "midpoint": midpoint,
                "endpoint": endpoint,
                "ok": f_xy <= midpoint + TOL and midpoint <= endpoint + TOL,
            })
    return results


def gx_step_audit(enum: Enumeration) -> list[dict]:
    """Per-x concavity step: the summed per-edge terms are at most
    log2(d_x)/(d_x - 1)."""
    degs = enum.b.degrees_x
    results = []
    for x in range(enum.ell):
        lhs = sum(_g(float(enum.p[x][y]), degs[x])
                  for y in range(enum.m) if enum.p[x][y])
        rhs = log_ratio(degs[x])
        results.append({"x": x, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + TOL})
    return results


def middle_step_audit(enum: Enumeration) -> dict:
    """Concavity of t*log2(1/t) over the nu values against the aggregate."""
    lhs = entropy_bits(enum.nu)
    alpha_y = enum.ell / enum.m
    alpha_term = 0.0 if alpha_y == 0 else alpha_y * math.log2(alpha_y)
    rhs = enum.m * (binary_entropy(alpha_y) + alpha_term)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + TOL}


class TestSizeDistribution:
    def test_single_choice_point_mass(self):
        b = complete_bipartite(1, 4)
        audit = zx_distribution_audit(Enumeration(b), 0)
        assert audit.q_table == {4: Fraction(1)}
        assert audit.passed

    def test_half_half(self):
        audit = zx_distribution_audit(Enumeration(MARGINAL_EXAMPLE), 0)
        assert audit.q_table == {2: Fraction(1, 2), 3: Fraction(1, 2)}
        assert audit.passed

    def test_square_case_uniform(self):
        audit = zx_distribution_audit(Enumeration(complete_bipartite(3, 3)), 1)
        assert audit.q_table == {k: Fraction(1, 3) for k in (1, 2, 3)}
        assert audit.passed

    def test_caps(self):
        with pytest.raises(CapExceeded):
            zx_distribution_audit(Enumeration(complete_bipartite(5, 5)), 0)

    def test_no_saturating_matching(self):
        b = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="saturating"):
            zx_distribution_audit(Enumeration(b), 0)


class TestAvailabilityFormula:
    def test_single_step(self):
        b = BipartiteGraph(1, 3, [(0, 0), (0, 1)])
        audit = rk_formula_audit(Enumeration(b), 0, 1)
        enum = Enumeration(b)
        expected = enum.nu[1] + enum.p[0][1]
        assert audit.r_table[(3, 1)] == expected
        assert audit.passed

    def test_worked_example(self):
        audit = rk_formula_audit(Enumeration(MARGINAL_EXAMPLE), 0, 1)
        assert audit.passed
        assert set(audit.r_table) == {(2, 1), (3, 1)}

    def test_k22(self):
        for x, y in complete_bipartite(2, 2).edges:
            audit = rk_formula_audit(Enumeration(complete_bipartite(2, 2)), x, y)
            assert audit.passed

    def test_zero_probability_edge_rejected(self):
        b = BipartiteGraph(2, 2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError, match="partner"):
            rk_formula_audit(Enumeration(b), 0, 1)  # edge exists but is never used

    def test_json_fractions(self):
        doc = rk_formula_audit(Enumeration(MARGINAL_EXAMPLE), 0, 1).to_json_dict()
        assert doc["passed"] is True
        assert all("/" in v for v in doc["qTable"].values())


class TestInequalityChain:
    def test_k22(self):
        audit = inequality_chain_audit(Enumeration(complete_bipartite(2, 2)))
        labels = [label for label, _v in audit.checkpoints]
        values = dict(audit.checkpoints)
        assert labels[0] == "exact-entropy"
        assert values["exact-entropy"] == 1.0
        assert abs(values["degree-bound"]
                   - thm_bipartite_bound(complete_bipartite(2, 2), 2)) < 1e-12
        assert audit.passed

    def test_star_chain_collapses(self):
        for m in (2, 3, 5):
            audit = inequality_chain_audit(Enumeration(complete_bipartite(1, m)))
            values = dict(audit.checkpoints)
            assert abs(values["exact-entropy"] - math.log2(m)) < 1e-12
            assert abs(values["given-available-set"] - math.log2(m)) < 1e-12
            assert audit.passed

    def test_worked_example(self):
        audit = inequality_chain_audit(Enumeration(MARGINAL_EXAMPLE))
        assert abs(audit.checkpoints[0][1] - math.log2(3)) < 1e-12
        assert audit.passed

    def test_chain_rule_identity_on_catalog(self):
        for b, ell in CATALOG:
            audit = inequality_chain_audit(Enumeration(b))
            assert audit.chain_rule_gap <= TOL, (b.edges, ell)

    def test_monotone_on_catalog(self):
        for b, ell in CATALOG:
            audit = inequality_chain_audit(Enumeration(b))
            values = [v for _l, v in audit.checkpoints]
            for i in range(len(values) - 1):
                assert values[i] <= values[i + 1] + TOL, (b.edges, ell, audit.checkpoints)

    def test_json_shape(self):
        doc = inequality_chain_audit(Enumeration(MARGINAL_EXAMPLE)).to_json_dict()
        assert doc["schema"] == 1 and doc["passed"] is True
        assert len(doc["checkpoints"]) == 6


class TestStepAudits:
    def test_refinement_on_catalog(self):
        for b, ell in CATALOG[:60]:
            for entry in step_refinement_audit(Enumeration(b)):
                assert entry["ok"], (b.edges, ell, entry)

    def test_gx_on_catalog(self):
        for b, ell in CATALOG[:60]:
            for entry in gx_step_audit(Enumeration(b)):
                assert entry["ok"], (b.edges, ell, entry)

    def test_middle_on_catalog(self):
        for b, ell in CATALOG[:60]:
            assert middle_step_audit(Enumeration(b))["ok"], (b.edges, ell)


class TestEnumerationOrder:
    def test_partner_tuples_in_lexicographic_order(self):
        # the proof-lab floats are summed in this order
        for b, ell in CATALOG:
            edges = set(b.edges)
            expected = sorted(f for f in permutations(range(b.size_y), ell)
                              if all((x, y) in edges for x, y in enumerate(f)))
            assert Enumeration(b).fs == expected, (b.edges, ell)


class TestEnumerationAgainstMarginals:
    def test_dual_route_probabilities(self):
        # enumeration frequencies versus the deletion-count rationals
        for b, ell in CATALOG[:40]:
            enum = Enumeration(b)
            table = matching_marginals(b)
            assert enum.p == table.p
            assert enum.mu == table.mu


class TestCatalog:
    def test_size_and_validity(self):
        assert len(CATALOG) >= 50
        for b, ell in CATALOG:
            assert b.size_x == ell <= b.size_y
            assert min(b.degrees_x) >= 1
            assert min(b.degrees_y) >= 1

    def test_deterministic(self):
        again = tiny_bipartite_catalog()
        assert [(b.edges, ell) for b, ell in again] == \
            [(b.edges, ell) for b, ell in CATALOG]


def _assert_matches_order_walk(b, ell):
    enum = Enumeration(b)
    for x in range(ell):
        q, q_cond, r, h_available, h_history = order_walk(b.edges, ell, b.size_y, x)
        tables = enum.size_tables(x)
        assert tables == (q, q_cond, r), (b.edges, ell, x)
        # the chain's float sums read q_cond in key order
        assert [(y, list(t)) for y, t in tables[1].items()] == \
            [(y, list(t)) for y, t in q_cond.items()]
        # bit for bit: the same terms summed in the same order
        assert enum.conditional_entropy_given_available(x) == h_available, (b.edges, x)
        assert enum.conditional_entropy_given_history(x) == h_history, (b.edges, x)


@st.composite
def small_instances(draw):
    ell = draw(st.integers(1, 4))
    m = draw(st.integers(ell, 5))
    pairs = list(itertools.product(range(ell), range(m)))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=ell))
    return BipartiteGraph(ell, m, edges), ell


class TestAgainstOrderWalk:
    """The predecessor-set walk against the walk over every (order,
    matching) pair."""

    def test_catalog(self):
        for b, ell in CATALOG:
            _assert_matches_order_walk(b, ell)

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_small_instances(self, instance):
        b, ell = instance
        edge_set = set(b.edges)
        if not any(all((x, y) in edge_set for x, y in enumerate(f))
                   for f in permutations(range(b.size_y), ell)):
            with pytest.raises(ValueError, match="saturating"):
                Enumeration(b)
            return
        _assert_matches_order_walk(b, ell)


class TestXRange:
    @pytest.mark.parametrize("accessor", ["size_tables",
                                          "conditional_entropy_given_available",
                                          "conditional_entropy_given_history"])
    @pytest.mark.parametrize("x", [-1, 2, 5])
    def test_out_of_range(self, accessor, x):
        enum = Enumeration(complete_bipartite(2, 2))
        with pytest.raises(ValueError, match=rf"^x out of range: {x}$"):
            getattr(enum, accessor)(x)


class TestRecordedReports:
    @pytest.mark.parametrize("entry", [pytest.param(e, id=f"{i:03d}-ell{e['ell']}")
                                       for i, e in enumerate(GOLDEN["instances"])])
    def test_report(self, entry, tmp_path, capsys):
        path = tmp_path / "g.bip"
        path.write_text(entry["bipartite"])
        assert main(["prooflab", "--graph", str(path), "--ell", str(entry["ell"])]) == 0
        captured = capsys.readouterr()
        assert captured.out == entry["stdout"] and captured.err == ""
        enum = Enumeration(parse_bipartite(entry["bipartite"]))
        assert repr(step_refinement_audit(enum)) == entry["stepRefinement"]
        assert repr(middle_step_audit(enum)) == entry["middleStep"]
        assert repr(gx_step_audit(enum)) == entry["gxStep"]

    def test_corpus_is_the_catalog(self):
        assert [(e["bipartite"], e["ell"]) for e in GOLDEN["instances"]] == \
            [(emit_bipartite(b), ell) for b, ell in CATALOG]
