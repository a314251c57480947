import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchbound import (BipartiteGraph, CapExceeded, Graph, ParseError, as_bipartite,
                        bipartite_double_cover, complete_bipartite, cycle_graph,
                        disjoint_union, emit_bipartite, emit_edge_list, emit_graph6,
                        matching_profile, parse_bipartite, parse_edge_list,
                        parse_graph6, random_graph, random_regular,
                        umc_extremal_profile)


class TestEdgeListFormat:
    def test_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g.n == 3 and g.edges == ((0, 1), (0, 2), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_edge_list("2 1\n0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("4 2\n0 1\n0 1")

    def test_duplicate_rejected_reversed(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("4 2\n0 1\n1 0")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            parse_edge_list("3 1\n0 5")

    def test_malformed(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_edge_list("3\n0 1")
        with pytest.raises(ParseError, match="malformed"):
            parse_edge_list("3 1\n0 1 2")
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1")

    def test_round_trip(self):
        for seed in range(10):
            g = random_graph(8, 0.4, seed)
            assert parse_edge_list(emit_edge_list(g)) == g


class TestBipartiteFormat:
    def test_round_trip(self):
        b = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        assert parse_bipartite(emit_bipartite(b)) == b

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            parse_bipartite("2 3 1\n0 0")

    def test_range_and_duplicates(self):
        with pytest.raises(ParseError, match="range"):
            parse_bipartite("B 2 2 1\n0 2")
        with pytest.raises(ParseError, match="duplicate"):
            parse_bipartite("B 2 2 2\n0 0\n0 0")


class TestGraph6:
    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges == ((0, 1),)
        assert emit_graph6(g) == "A_"

    def test_two_isolated(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.edges == ()
        assert emit_graph6(g) == "A?"

    def test_invalid_character(self):
        with pytest.raises(ParseError, match="character"):
            parse_graph6("A" + chr(20))

    def test_length_mismatch(self):
        with pytest.raises(ParseError, match="length"):
            parse_graph6("A")
        with pytest.raises(ParseError, match="length"):
            parse_graph6("A__")

    def test_nonzero_padding_rejected(self):
        assert parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
        with pytest.raises(ParseError, match="padding"):
            parse_graph6("B~")

    def test_reference_encoder_round_trip(self):
        nx = pytest.importorskip("networkx")
        for seed in range(100):
            n = 1 + seed % 20
            g = random_graph(n, 0.35, seed)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(g.edges)
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert emit_graph6(g) == expected
            parsed = parse_graph6(expected)
            assert parsed == g
            assert emit_graph6(parsed) == expected

    def test_round_trip_up_to_62(self):
        for n in (1, 2, 30, 61, 62):
            g = random_graph(n, 0.2, n)
            assert parse_graph6(emit_graph6(g)) == g

    def test_wide_size_header(self):
        g = random_graph(64, 0.1, 5)
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g



@st.composite
def graphs(draw, sizes=st.integers(1, 12)):
    """Graphs with up to 40 edges, isolated vertices and empty edge sets
    included."""
    n = draw(sizes)
    if n == 1:
        return Graph(1)
    edge = st.integers(0, n - 2).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u + 1, n - 1)))
    return Graph(n, draw(st.lists(edge, unique=True, max_size=40)))


@st.composite
def bipartite_graphs(draw):
    size_x = draw(st.integers(1, 8))
    size_y = draw(st.integers(1, 8))
    edge = st.tuples(st.integers(0, size_x - 1), st.integers(0, size_y - 1))
    return BipartiteGraph(size_x, size_y, draw(st.lists(edge, unique=True, max_size=40)))


class TestRoundTripProperties:
    """emit then parse gives back the same graph, in all three formats."""

    @settings(max_examples=200, deadline=None)
    @given(graphs(sizes=st.one_of(st.integers(1, 12), st.integers(58, 68))))
    @example(Graph(1))
    @example(Graph(62))
    @example(Graph(63))
    @example(Graph(63, [(0, 62)]))
    def test_graph6(self, g):
        text = emit_graph6(g)
        assert text.startswith("~") == (g.n >= 63)
        assert parse_graph6(text) == g

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    @example(Graph(1))
    @example(Graph(5, [(3, 4)]))
    def test_edge_list(self, g):
        assert parse_edge_list(emit_edge_list(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs())
    @example(BipartiteGraph(1, 1, []))
    @example(BipartiteGraph(3, 2, [(2, 1)]))
    def test_bipartite(self, b):
        assert parse_bipartite(emit_bipartite(b)) == b


class TestConstructions:
    def test_complete_bipartite(self):
        b = complete_bipartite(3, 3)
        assert b.num_edges == 9
        g = b.to_graph()
        assert g.n == 6 and g.is_regular() and g.degrees[0] == 3
        # the constructor refuses an empty part
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6 and g.is_regular() and g.degrees[0] == 2
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_disjoint_union(self):
        k2 = Graph(2, [(0, 1)])
        g = disjoint_union([k2, k2])
        assert g.n == 4 and g.edges == ((0, 1), (2, 3))
        # the union of nothing has no vertex, which Graph refuses
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_umc_extremal(self):
        for n_vertices, d in ((4, 1), (12, 3), (16, 4)):
            block = complete_bipartite(d, d).to_graph()
            g = disjoint_union([block] * (n_vertices // (2 * d)))
            assert g.n == n_vertices and g.is_regular() and g.degrees[0] == d
            assert matching_profile(g) == umc_extremal_profile(n_vertices, d)
        with pytest.raises(ValueError, match="must divide"):
            umc_extremal_profile(10, 3)

    def test_graph_invariants(self):
        with pytest.raises(ValueError):
            Graph(0)
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])


class TestDoubleCover:
    def test_single_edge(self):
        cover = bipartite_double_cover(Graph(2, [(0, 1)]))
        assert cover.size_x == cover.size_y == 2
        assert cover.edges == ((0, 1), (1, 0))

    def test_degrees_and_parts(self):
        for seed in range(20):
            g = random_graph(9, 0.4, seed)
            cover = bipartite_double_cover(g)
            assert cover.size_x == cover.size_y == g.n
            assert cover.degrees_x == g.degrees
            assert cover.degrees_y == g.degrees

    def test_odd_cycle_cover_is_double_cycle(self):
        from matchbound import matching_profile
        cover = bipartite_double_cover(cycle_graph(3)).to_graph()
        assert matching_profile(cover) == matching_profile(cycle_graph(6))

    def test_even_cycle_cover_splits(self):
        from matchbound import matching_profile, profile_convolution
        cover = bipartite_double_cover(cycle_graph(4)).to_graph()
        c4 = matching_profile(cycle_graph(4))
        assert matching_profile(cover) == profile_convolution(c4, c4)


class TestRandomRegular:
    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=0)

    def test_k4_is_forced(self):
        for seed in range(10):
            g = random_regular(4, 3, seed)
            assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_determinism(self):
        assert random_regular(12, 3, 42) == random_regular(12, 3, 42)

    def test_regular_and_simple(self):
        for seed in range(30):
            g = random_regular(10, 3, seed)
            # independent recount from the raw edge list
            deg = [0] * g.n
            seen = set()
            for u, v in g.edges:
                assert u != v
                assert (u, v) not in seen
                seen.add((u, v))
                deg[u] += 1
                deg[v] += 1
            assert all(d == 3 for d in deg)

    def test_retry_cap(self):
        with pytest.raises(CapExceeded):
            random_regular(2, 1, seed=0, max_attempts=0)


class TestBipartition:
    def test_even_cycle(self):
        b = as_bipartite(cycle_graph(6))
        assert b is not None
        assert (b.size_x, b.size_y) == (3, 3)

    def test_odd_cycle(self):
        assert as_bipartite(cycle_graph(5)) is None

    def test_round_trip_profile_irrelevant_structure(self):
        k33 = complete_bipartite(3, 3).to_graph()
        b = as_bipartite(k33)
        assert b is not None and sorted(b.degrees_x) == [3, 3, 3]
