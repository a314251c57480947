"""Graph representations, standard constructions, file formats, and the
bipartite double cover.

Vertices are dense 0-based integers throughout (the counting core keys its
states on vertex bitmasks). Bipartite graphs index their Y-part independently
from 0.
"""

from __future__ import annotations

import functools
import random
import re
from itertools import compress

from .errors import CapExceeded, ParseError

GRAPH6_MAX_N = 258047  # 1- and 4-byte size headers only; the vertex cap of every graph
REGULAR_RETRY_CAP = 10 ** 6  # whole pairings random_regular draws before giving up


def check_vertex_count(n: int) -> None:
    """Refuse more than GRAPH6_MAX_N vertices, so every graph can be written as graph6."""
    if n > GRAPH6_MAX_N:
        raise CapExceeded(f"{n} vertices exceed the vertex cap of {GRAPH6_MAX_N}; the cap "
                          "is the fixed constant graphs.GRAPH6_MAX_N, with no knob")


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    No loops, no parallel edges, at most GRAPH6_MAX_N vertices. Isolated
    vertices are allowed here; bound evaluators reject them separately.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        check_vertex_count(n)
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self.n = n
        self.edges = tuple(sorted(seen))
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(map(tuple, adj))  # ascending: the edges are sorted

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


class BipartiteGraph:
    """Bipartite graph with explicit parts X (0..size_x-1) and Y (0..size_y-1).

    Edges are (x, y) pairs crossing the bipartition; GRAPH6_MAX_N vertices at most.
    """

    __slots__ = ("size_x", "size_y", "edges", "adj_x", "adj_y")

    def __init__(self, size_x: int, size_y: int, edges=()):
        if size_x < 1 or size_y < 1:
            raise ValueError("both parts need at least one vertex")
        check_vertex_count(size_x + size_y)
        seen = set()
        for x, y in edges:
            if not (0 <= x < size_x and 0 <= y < size_y):
                raise ValueError(f"vertex out of range: ({x}, {y})")
            if (x, y) in seen:
                raise ValueError(f"duplicate edge ({x}, {y})")
            seen.add((x, y))
        self.size_x = size_x
        self.size_y = size_y
        self.edges = tuple(sorted(seen))
        adj_x = [[] for _ in range(size_x)]
        adj_y = [[] for _ in range(size_y)]
        for x, y in self.edges:
            adj_x[x].append(y)
            adj_y[y].append(x)
        self.adj_x = tuple(map(tuple, adj_x))  # ascending: the edges are sorted
        self.adj_y = tuple(map(tuple, adj_y))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees_x(self) -> list[int]:
        return [len(a) for a in self.adj_x]

    def to_graph(self) -> Graph:
        """Flatten to a Graph: X keeps its indices, Y-vertex y becomes size_x + y."""
        return Graph(self.size_x + self.size_y,
                     [(x, self.size_x + y) for x, y in self.edges])

    def __eq__(self, other):
        return (isinstance(other, BipartiteGraph)
                and (self.size_x, self.size_y, self.edges)
                == (other.size_x, other.size_y, other.edges))

    def __hash__(self):
        return hash((self.size_x, self.size_y, self.edges))

    def __repr__(self):
        return f"BipartiteGraph({self.size_x}x{self.size_y}, m={self.num_edges})"


# ---------------------------------------------------------------------------
# edge-list and bipartite text formats
# ---------------------------------------------------------------------------

_NUMBER = re.compile("-?[0-9]+")  # a size, count or vertex: no "+", "_" or non-ASCII digit
# lines of two such numbers each, joined by "\n"
_EDGE_LINES = re.compile(r"(?:[^\S\n]*-?[0-9]+[^\S\n]+-?[0-9]+[^\S\n]*(?:\n|\Z))*")


def _edge_numbers(text: str) -> list[int] | None:
    """The numbers of edge lines joined by "\n", or None unless each line
    holds two numbers that int() converts."""
    if _EDGE_LINES.fullmatch(text):
        try:
            return list(map(int, text.split()))
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_lines(text: str, cls, tag: list[str], parts: int):
    """The line formats: a header of tag, `parts` part sizes and the edge
    count m, then m lines "u v". cls builds the graph, so it refuses the
    sizes and the edges; m is refused here, since no constructor sees it.
    The edge lines are checked in one pass of a regular expression."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head, k = lines[0].split(), len(tag)
    try:
        if (head[:k] != tag or len(head) != k + parts + 1
                or not all(map(_NUMBER.fullmatch, head[k:]))):
            raise ValueError
        *sizes, m = map(int, head[k:])
    except ValueError:
        raise ParseError(f"malformed header: {lines[0]!r}") from None
    if m < 0:
        raise ParseError(f"bad sizes in header: {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    numbers = _edge_numbers("\n".join(lines[1:]))
    if numbers is None:
        bad = next(ln for ln in lines[1:] if _edge_numbers(ln) is None)
        raise ParseError(f"malformed edge line: {bad!r}")
    try:
        return cls(*sizes, zip(numbers[::2], numbers[1::2]))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header + "u v" lines format."""
    return _parse_lines(text, Graph, [], 1)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the "B sizeX sizeY m" header + "x y" lines format."""
    return _parse_lines(text, BipartiteGraph, ["B"], 2)


def emit_bipartite(b: BipartiteGraph) -> str:
    lines = [f"B {b.size_x} {b.size_y} {b.num_edges}"]
    lines.extend(f"{x} {y}" for x, y in b.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 (bit-packed upper triangle, 6-bit chunks offset by 63)
# ---------------------------------------------------------------------------

def emit_graph6(g: Graph) -> str:
    n = g.n  # at most GRAPH6_MAX_N: the constructor refuses more
    edges = set(g.edges)
    bits = "".join("1" if e in edges else "0" for e in _g6_pairs(n))
    head = chr(n + 63) if n <= 62 else "~" + _g6_chars(format(n, "018b"))
    return head + _g6_chars(bits + "0" * (-len(bits) % 6))


def parse_graph6(text: str) -> Graph:
    """One graph6 string. A line after it is refused once the first line
    reads as a graph, so a text in another format is refused for that."""
    s, _, more = text.strip().partition("\n")
    s = s.rstrip()  # the "\r" of a "\r\n" line end
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    if ord(s[0]) == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise ParseError("8-byte graph6 sizes (n > 258047) not supported")
        if len(s) < 4:
            raise ParseError("truncated graph6 size header")
        n = int(_g6_bits(s[1:4], "size"), 2)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ParseError(f"invalid graph6 size character {s[0]!r}")
        body = s[1:]
    if n == 0:
        raise ParseError("graph6 string encodes an empty graph (n=0)")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ParseError(
            f"graph6 body length {len(body)} does not match n={n} (expected {expected})")
    bits = _g6_bits(body, "body")
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits in graph6 body")
    if more:
        raise ParseError("graph6 input holds more than one graph, one per line; "
                         "this command reads one")
    return Graph(n, compress(_g6_pairs(n), bits.encode().translate(_BIT_BYTES)))


_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}  # a character's six bits
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _g6_bits(chars: str, part: str) -> str:
    """chars as "0"/"1", six bits each, most significant first."""
    bits = chars.translate(_G6_BITS)
    if len(bits) != 6 * len(chars):  # a character outside the table kept one place
        bad = next(ch for ch in chars if ord(ch) not in _G6_BITS)
        raise ParseError(f"invalid character {bad!r} in graph6 {part}")
    return bits


def _g6_chars(bits: str) -> str:
    """Each six "0"/"1" bits as one character, most significant first."""
    return "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def _g6_pairs(n: int):
    """The (i, j) pairs of the upper triangle in graph6 bit order; those of
    the sizes the 1-byte header writes (n <= 62) are kept."""
    return _kept_pairs(n) if n <= 62 else _upper_triangle(n)


def _upper_triangle(n: int):
    return ((i, j) for j in range(1, n) for i in range(j))


_kept_pairs = functools.cache(lambda n: tuple(_upper_triangle(n)))


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, [(x, y) for x in range(a) for y in range(b)])


def bipartite_double_cover(g: Graph) -> BipartiteGraph:
    """The cover on two copies of V: X-index v is (v,0), Y-index v is (v,1),
    with (x,0)(y,1) an edge exactly when xy is an edge of g."""
    edges = []
    for u, v in g.edges:
        edges.append((u, v))
        edges.append((v, u))
    return BipartiteGraph(g.n, g.n, edges)


# ---------------------------------------------------------------------------
# seeded random generation
# ---------------------------------------------------------------------------

def random_regular(n: int, d: int, seed) -> Graph:
    """Uniform-stub pairing with full rejection of loops and parallel edges.

    All randomness comes from the seed; identical seeds give identical graphs.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    getrandbits = random.Random(seed).getrandbits
    stubs0 = [v for v in range(n) for _ in range(d)]
    # Fisher-Yates drawing as random.shuffle does on CPython 3.10 and 3.11:
    # j below i + 1 from getrandbits((i + 1).bit_length()), redrawn above i
    steps = [(i, (i + 1).bit_length()) for i in range(len(stubs0) - 1, 0, -1)]
    for _ in range(REGULAR_RETRY_CAP):
        stubs = stubs0[:]
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return Graph(n, edges)
    raise CapExceeded(f"no simple {d}-regular pairing found in {REGULAR_RETRY_CAP} "
                      "attempts; the cap is the fixed constant graphs.REGULAR_RETRY_CAP, "
                      "with no knob")


def as_bipartite(g: Graph):
    """Reify a 2-colorable Graph as a BipartiteGraph (None if not possible).

    Colors by BFS, the lowest vertex of each component taking color 0. X
    keeps the color-0 vertices in increasing order, Y the color-1 ones.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    sizes = [0, 0]
    index = []  # each vertex's index within its side
    for c in color:
        index.append(sizes[c])
        sizes[c] += 1
    if not all(sizes):
        return None
    # every edge has one color-0 end, so X's adjacency lists each edge once
    return BipartiteGraph(*sizes, [(index[x], index[y]) for x in range(g.n)
                                   if not color[x] for y in g.adj[x]])
