import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchbound
from matchbound import (BipartiteGraph, CapExceeded, Graph, ParseError, as_bipartite,
                        bipartite_double_cover, complete_bipartite, cycle_graph,
                        emit_bipartite, emit_graph6,
                        matching_profile, parse_bipartite, parse_edge_list,
                        parse_graph6, random_regular, umc_extremal_profile)
from oracles import (as_bipartite_by_lists, disjoint_union, emit_edge_list,
                     emit_graph6_by_bits, parse_graph6_by_bits, random_graph,
                     random_regular_by_shuffle)

# (n, d, seed, graph6 of random_regular(n, d, seed)), recorded with the
# encoder kept as oracles.emit_graph6_by_bits: seeded graphs stay the same
RECORDED_REGULAR = [
    (4, 3, 0, 'C~'),
    (6, 1, 1, 'E@Q?'),
    (6, 2, 2, 'EHf?'),
    (6, 3, 3, 'ErUg'),
    (8, 2, 21, 'GBOcSG'),
    (8, 3, 4, 'GaiHj_'),
    (9, 4, 23, 'HigTiyk'),
    (10, 3, 5, 'IGb_e_iE_'),
    (10, 4, 6, 'IQxPkgioW'),
    (12, 2, 7, 'K__g?`AK?C?H'),
    (12, 3, 8, 'K@xP?FC?oAq@'),
    (12, 4, 9, 'KPBR?ojqCsGi'),
    (14, 3, 10, 'MP@Y@OA?K?_FU?_o?'),
    (16, 4, 11, 'OoD_?_Y?wC|?A_@Qs@Qi?'),
    (18, 3, 12, 'Qw??_C@K?`Gc`?A_@@?Q@?C_C@G'),
    (20, 1, 13, 'S????G??G_C?O?A????????C??c???C??'),
    (20, 4, 14, 'SAGC_G@?GBGA_`MASCagCBC@@GGW_DC?C'),
    (22, 3, 15, 'U@@??@BO?QAA_?C??QKG?AAOAA?GG`?CA`??A?@O'),
    (24, 4, 22, 'WA?gPo?P?Oo??I?GO?W_??Oc?cQcA?CoAa?OH@@A@H?O?HG'),
    (30, 4, 16, ']?GO?J?C@??O`OA@HC@O?o??S@?@_aA_?BA?????C?O_?@_??OL?CGOC@_A?_GC_?'
                'a?@Q?GOG?'),
]


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


class TestLineFormatRefusals:
    @pytest.mark.parametrize("parse, text, message", [
        (parse_edge_list, " \n\n", "empty input"),
        (parse_bipartite, "", "empty input"),
        (parse_edge_list, "a 1\n0 1", "malformed header: 'a 1'"),
        (parse_bipartite, "B 2 x 1\n0 0", "malformed header: 'B 2 x 1'"),
        (parse_edge_list, "0 1\n0 1", "graph needs at least one vertex"),
        (parse_edge_list, "3 -1", "bad sizes in header: '3 -1'"),
        (parse_bipartite, "B 0 2 1\n0 0", "both parts need at least one vertex"),
        (parse_bipartite, "B 2 2 2\n0 0", "expected 2 edge lines, found 1"),
        (parse_bipartite, "B 2 2 0\n0 0", "expected 0 edge lines, found 1"),
        # the constructor sees the sizes only after the count and the edge lines
        (parse_edge_list, "0 3", "expected 3 edge lines, found 0"),
        (parse_bipartite, "B 0 2 1\nx y", "malformed edge line: 'x y'"),
        # a number is an optional "-" and ASCII digits: not every text int() reads
        (parse_edge_list, "1_0 0\n", "malformed header: '1_0 0'"),
        (parse_edge_list, "+3 0", "malformed header: '+3 0'"),
        (parse_edge_list, "\u0663 0", "malformed header: '\u0663 0'"),
        (parse_edge_list, " 3 0x0", "malformed header: ' 3 0x0'"),
        (parse_bipartite, "B +1 1 1\n0 0", "malformed header: 'B +1 1 1'"),
        (parse_bipartite, "B 1 1 1.0\n0 0", "malformed header: 'B 1 1 1.0'"),
        (parse_edge_list, "2 1\n\u0660 \u0661\n", "malformed edge line: '\u0660 \u0661'"),
        (parse_edge_list, "3 1\n+1 2", "malformed edge line: '+1 2'"),
        (parse_edge_list, "3 2\n0 1\n1_0 2", "malformed edge line: '1_0 2'"),
        (parse_edge_list, "3 1\n0 -", "malformed edge line: '0 -'"),
        (parse_edge_list, "3 1\n0 --1", "malformed edge line: '0 --1'"),
        (parse_edge_list, "3 1\n\uff10 1", "malformed edge line: '\uff10 1'"),
        (parse_bipartite, "B 1 2 2\n0 0\n0 \u0661", "malformed edge line: '0 \u0661'"),
        # the first malformed line is named, whatever is wrong with it
        (parse_edge_list, "3 2\n0 1 2\n1_0 2", "malformed edge line: '0 1 2'"),
        (parse_edge_list, "3 2\n1_0 2\n0 1 2", "malformed edge line: '1_0 2'"),
        (parse_edge_list, "3 2\n0 1\n1 2 0", "malformed edge line: '1 2 0'"),
        pytest.param(parse_edge_list, "2 1\n0 1" + "0" * 5000,
                     f"malformed edge line: '0 1{'0' * 5000}'", id="more-digits-than-int-takes"),
    ])
    def test_message(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("parse, text", [
        (parse_edge_list, "B 2 2 0"),     # the other format's header
        (parse_bipartite, "2 0"),
        (parse_bipartite, "A 2 2 0"),     # another tag
        (parse_bipartite, "B 2 2"),       # a size short
        (parse_edge_list, "2 0 0"),       # a size too many
        (parse_edge_list, "2"),
        (parse_bipartite, "B"),
    ])
    def test_one_header_message_for_both_formats(self, parse, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"malformed header: {text!r}"

    def test_separators_are_any_whitespace(self):
        g = parse_edge_list("3 2\r\n\t0\u00a01 \n\n 1  2\t\n")
        assert g.edges == ((0, 1), (1, 2))
        assert parse_bipartite("B 1 2 1\n0 1 ").edges == ((0, 1),)

    @pytest.mark.parametrize("parse, text", [(parse_edge_list, "-2 1\n0 1"),
                                             (parse_bipartite, "B 1 -1 0")])
    def test_constructor_refuses_negative_sizes(self, parse, text):
        with pytest.raises(ParseError, match="at least one vertex"):
            parse(text)

    @pytest.mark.parametrize("parse, text", [(parse_edge_list, "3 1\n-1 2"),
                                             (parse_bipartite, "B 1 1 1\n0 -1")])
    def test_constructor_refuses_negative_vertices(self, parse, text):
        with pytest.raises(ParseError, match="^vertex out of range"):
            parse(text)

    @pytest.mark.parametrize("parse, text", [(parse_edge_list, "0 -1"),
                                             (parse_bipartite, "B 0 2 -1")])
    def test_negative_edge_count_refused_first(self, parse, text):
        # no constructor sees m, so the reader refuses it before the sizes
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"bad sizes in header: {text!r}"


class TestVertexCap:
    """Every graph holds at most GRAPH6_MAX_N vertices, refused by the
    constructors before any list is built."""

    MESSAGE = ("{} vertices exceed the vertex cap of 5; the cap is the fixed "
               "constant graphs.GRAPH6_MAX_N, with no knob")

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 5)

    @pytest.mark.parametrize("build, n", [
        (lambda: Graph(6), 6),
        (lambda: BipartiteGraph(3, 3), 6),
        (lambda: BipartiteGraph(1, 5, [(0, 4)]), 6),
        (lambda: parse_edge_list("6 0"), 6),
        (lambda: parse_edge_list("10 1\n0 1"), 10),
        (lambda: parse_bipartite("B 1 8 0"), 9),
        (lambda: bipartite_double_cover(cycle_graph(3)), 6),
        (lambda: random_regular(6, 2, 0), 6),
    ])
    def test_refused_with_its_size(self, build, n):
        with pytest.raises(CapExceeded) as info:
            build()
        assert str(info.value) == self.MESSAGE.format(n)

    def test_cap_itself_allowed(self):
        assert Graph(5).n == 5
        assert BipartiteGraph(2, 3).to_graph().n == 5
        assert emit_graph6(parse_edge_list("5 0")) == "D??"

    def test_sizes_refused_before_the_edges_are_read(self):
        # an edge out of range would be a ParseError; the size comes first
        with pytest.raises(CapExceeded):
            parse_edge_list("6 1\n0 99")


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

    @pytest.mark.parametrize("text", ["Bw\nCF\n", "Bw\r\nCF\r\n", "Bw\n\nBw",
                                      ">>graph6<<Bw\n>>graph6<<CF\n"])
    def test_more_than_one_graph_refused(self, text):
        with pytest.raises(ParseError) as info:
            parse_graph6(text)
        assert str(info.value) == ("graph6 input holds more than one graph, one per "
                                   "line; this command reads one")

    @pytest.mark.parametrize("text, message", [
        ("5 5\n0 1\n", "invalid graph6 size character '5'"),
        ("Bww\nCF\n", "graph6 body length 2 does not match n=3 (expected 1)"),
    ])
    def test_first_line_checked_before_the_second(self, text, message):
        # a text in another format is refused for its first line
        with pytest.raises(ParseError) as info:
            parse_graph6(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["Bw\n", "Bw\r\n", "  Bw \n\n"])
    def test_one_line_with_its_line_end(self, text):
        assert parse_graph6(text).edges == ((0, 1), (0, 2), (1, 2))



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


@st.composite
def graph6_texts(draw):
    """graph6 strings, valid or corrupted: both size headers (the 4-byte one
    for n >= 63), an optional >>graph6<< prefix and surrounding whitespace,
    then up to three characters replaced by any others, a set padding bit, or
    the string cut short or extended."""
    g = draw(graphs(sizes=st.one_of(st.integers(1, 12), st.integers(58, 68))))
    text = emit_graph6(g)
    spare = 6 * (len(text) - (4 if g.n >= 63 else 1)) - g.n * (g.n - 1) // 2
    fault = draw(st.sampled_from(["none", "replace", "padding", "cut", "extend"]))
    if fault == "replace":
        for i in draw(st.lists(st.integers(0, len(text) - 1), min_size=1, max_size=3)):
            text = text[:i] + draw(st.characters()) + text[i + 1:]
    elif fault == "padding" and spare:
        bit = 1 << draw(st.integers(0, spare - 1))
        text = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | bit))
    elif fault == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif fault == "extend":
        text += draw(st.text(min_size=1, max_size=3))
    prefix = draw(st.sampled_from(["", ">>graph6<<", " \n"]))
    return prefix + text + draw(st.sampled_from(["", "\n", " \t"]))


class TestGraph6Oracle:
    """The table-driven decoder returns the graph, or raises the ParseError
    text, of the decoder that expanded each character bit by bit."""

    @settings(max_examples=500, deadline=None)
    @given(graph6_texts())
    @example(">>graph6<<A_")
    @example("B~")
    @example("BC")
    @example("D" + chr(20) + chr(200))
    @example("A" + chr(20))
    @example("C" + chr(200) + "~")
    @example("~??~" + "?" * 325)
    @example("~??~" + "?" * 324 + "@")
    @example("~??")
    @example("~???")
    @example("~~??????")
    @example("~?" + chr(20) + "~")
    @example(">>graph6<<")
    @example("A_\nA_")
    @example("A\n_")
    @example(" >>graph6<<A_\r\n?\n")
    def test_same_graph_or_same_error(self, text):
        # parse_graph6 decodes the first line and refuses a line after it
        # once that decodes; the bit-by-bit decoder reads a single string
        first, newline, _ = text.strip().partition("\n")
        try:
            expected = parse_graph6_by_bits(first)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_graph6(text)
            assert str(info.value) == str(exc)
        else:
            if newline:
                with pytest.raises(ParseError) as info:
                    parse_graph6(text)
                assert str(info.value) == ("graph6 input holds more than one graph, "
                                           "one per line; this command reads one")
            else:
                assert parse_graph6(text) == expected


class TestConstructions:
    def test_complete_bipartite(self):
        b = complete_bipartite(3, 3)
        assert b.num_edges == 9
        g = b.to_graph()
        assert g.n == 6 and set(g.degrees) == {3}
        # the constructor refuses an empty part
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6 and set(g.degrees) == {2}
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
            assert g.n == n_vertices and set(g.degrees) == {d}
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
            assert [len(a) for a in cover.adj_y] == g.degrees

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

    @pytest.mark.parametrize("n, d", [(4, 4), (3, 4), (2, -2)])
    def test_degree_out_of_range(self, n, d):
        with pytest.raises(ValueError, match=r"^need 0 <= d < n$"):
            random_regular(n, d, seed=0)

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

    @pytest.mark.parametrize("n, d, seed, text", RECORDED_REGULAR)
    def test_recorded_graphs(self, n, d, seed, text):
        assert emit_graph6(random_regular(n, d, seed)) == text

    @pytest.mark.parametrize("d", range(6))
    def test_same_draws_as_stdlib_shuffle(self, d):
        # 216 (n, d, seed) triples in all; the seeds are spread out
        for n in range(d + 1, d + 17):
            if n * d % 2 == 0:
                for seed in (n, 1000 + 7 * d, 10 ** 6 + n * d):
                    assert random_regular(n, d, seed) == random_regular_by_shuffle(n, d, seed)

    def test_retry_cap(self, monkeypatch):
        monkeypatch.setattr(matchbound.graphs, "REGULAR_RETRY_CAP", 0)
        with pytest.raises(CapExceeded, match="graphs.REGULAR_RETRY_CAP, with no knob"):
            random_regular(2, 1, seed=0)


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

    def test_one_side_empty(self):
        assert as_bipartite(Graph(1)) is None
        assert as_bipartite(Graph(3)) is None
        # an isolated vertex is a component of its own and joins X
        assert as_bipartite(Graph(3, [(0, 2)])) == BipartiteGraph(2, 1, [(0, 0)])


@st.composite
def unions(draw):
    """Disjoint unions, relabelled at random, of blocks that are random
    graphs (often with isolated vertices), cycles of either parity, random
    bipartite graphs or single vertices; at most 70 vertices, so both graph6
    size headers occur."""
    block = st.one_of(graphs(sizes=st.one_of(st.integers(1, 12), st.integers(40, 68))),
                      st.integers(3, 16).map(cycle_graph),
                      bipartite_graphs().map(BipartiteGraph.to_graph),
                      st.just(Graph(1)))
    blocks = draw(st.lists(block, min_size=1, max_size=5))
    while len(blocks) > 1 and sum(b.n for b in blocks) > 70:
        blocks.pop()
    g = disjoint_union(blocks)
    perm = draw(st.permutations(range(g.n)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestGraphLayerOracles:
    """The graph6 encoder and the bipartite view agree with the ones they
    replaced: the encoder that packed each chunk bit by bit, and the coloring
    read back through sorted side lists and index dicts."""

    @settings(max_examples=300, deadline=None)
    @given(unions())
    @example(Graph(1))
    @example(Graph(62))
    @example(Graph(63))
    @example(cycle_graph(63))
    @example(Graph(70, [(0, 69)]))
    def test_graph6_encoder(self, g):
        assert emit_graph6(g) == emit_graph6_by_bits(g)

    @settings(max_examples=300, deadline=None)
    @given(unions())
    @example(Graph(1))
    @example(Graph(2))
    @example(Graph(2, [(0, 1)]))
    @example(disjoint_union([cycle_graph(4), cycle_graph(3)]))
    @example(disjoint_union([Graph(1), complete_bipartite(2, 3).to_graph()]))
    def test_bipartite_view(self, g):
        assert as_bipartite(g) == as_bipartite_by_lists(g)

    def test_size_limit(self, monkeypatch):
        # the constructor refuses what the emitter could not write
        monkeypatch.setattr(matchbound.graphs, "GRAPH6_MAX_N", 5)
        assert emit_graph6(Graph(5)) == "D??"
        with pytest.raises(CapExceeded, match=r"graphs\.GRAPH6_MAX_N"):
            emit_graph6(Graph(6))


@st.composite
def shuffled_edges(draw, edges):
    """The edges in a random order, each pair flipped or not."""
    order = draw(st.permutations(edges))
    return [e[::-1] if draw(st.booleans()) else e for e in order]


class TestAdjacency:
    """Adjacency tuples are the sorted neighbour sets, whatever the order and
    orientation in which the edges were given."""

    @settings(max_examples=200, deadline=None)
    @given(graphs().flatmap(lambda g: st.tuples(st.just(g), shuffled_edges(g.edges))))
    def test_graph(self, case):
        g, edges = case
        h = Graph(g.n, edges)
        assert h == g
        for v in range(g.n):
            assert h.adj[v] == tuple(sorted({u for e in edges if v in e for u in e} - {v}))

    @settings(max_examples=200, deadline=None)
    @given(bipartite_graphs().flatmap(lambda b: st.tuples(st.just(b), st.permutations(b.edges))))
    def test_bipartite(self, case):
        b, edges = case
        h = BipartiteGraph(b.size_x, b.size_y, edges)
        assert h == b
        for x in range(b.size_x):
            assert h.adj_x[x] == tuple(sorted({yy for xx, yy in edges if xx == x}))
        for y in range(b.size_y):
            assert h.adj_y[y] == tuple(sorted({xx for xx, yy in edges if yy == y}))
