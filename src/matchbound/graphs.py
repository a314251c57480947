"""Graph representations, standard constructions, file formats, and the
bipartite double cover.

Vertices are dense 0-based integers throughout (the counting core keys its
states on vertex bitmasks). Bipartite graphs index their Y-part independently
from 0.
"""

from __future__ import annotations

import random

from .errors import CapExceeded, ParseError

GRAPH6_MAX_N = 258047  # 1- and 4-byte size headers only


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    No loops, no parallel edges. Isolated vertices are allowed here;
    bound evaluators reject them separately.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
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
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def is_regular(self) -> bool:
        degs = self.degrees
        return all(d == degs[0] for d in degs)

    def has_isolated_vertex(self) -> bool:
        return any(not a for a in self.adj)

    def bipartition(self):
        """2-color by BFS, the lowest vertex of each component taking color 0.

        Returns (X, Y) as sorted lists, or None if the graph has an odd cycle
        or one side would be empty.
        """
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                u = queue.pop()
                for w in self.adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        x_side = [v for v in range(self.n) if color[v] == 0]
        y_side = [v for v in range(self.n) if color[v] == 1]
        if not x_side or not y_side:
            return None
        return x_side, y_side

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


class BipartiteGraph:
    """Bipartite graph with explicit parts X (0..size_x-1) and Y (0..size_y-1).

    Edges are (x, y) pairs crossing the bipartition.
    """

    __slots__ = ("size_x", "size_y", "edges", "adj_x", "adj_y")

    def __init__(self, size_x: int, size_y: int, edges=()):
        if size_x < 1 or size_y < 1:
            raise ValueError("both parts need at least one vertex")
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
        self.adj_x = tuple(tuple(sorted(a)) for a in adj_x)
        self.adj_y = tuple(tuple(sorted(a)) for a in adj_y)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def degrees_x(self) -> list[int]:
        return [len(a) for a in self.adj_x]

    @property
    def degrees_y(self) -> list[int]:
        return [len(a) for a in self.adj_y]

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

def _edge_lines(lines) -> list[tuple[int, int]]:
    """Two integers per line; the graph constructors check the values."""
    edges = []
    for ln in lines:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ParseError(f"malformed edge line: {ln!r}") from None
        edges.append((u, v))
    return edges


def _build(cls, *args):
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header + "u v" lines format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"malformed header: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"malformed header: {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise ParseError(f"bad sizes in header: n={n}, m={m}")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    return _build(Graph, n, _edge_lines(lines[1:]))


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the "B sizeX sizeY m" header + "x y" lines format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "B":
        raise ParseError(f"malformed bipartite header: {lines[0]!r}")
    try:
        size_x, size_y, m = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise ParseError(f"malformed bipartite header: {lines[0]!r}") from None
    if size_x < 1 or size_y < 1 or m < 0:
        raise ParseError(f"bad sizes in header: {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    return _build(BipartiteGraph, size_x, size_y, _edge_lines(lines[1:]))


def emit_bipartite(b: BipartiteGraph) -> str:
    lines = [f"B {b.size_x} {b.size_y} {b.num_edges}"]
    lines.extend(f"{x} {y}" for x, y in b.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 (bit-packed upper triangle, 6-bit chunks offset by 63)
# ---------------------------------------------------------------------------

def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= GRAPH6_MAX_N:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"graph6 emitter supports n <= {GRAPH6_MAX_N}")
    edge_set = set(g.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edge_set else 0)
    chars = []
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for bit in chunk:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return head + "".join(chars)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    if ord(s[0]) == 126:
        if len(s) >= 2 and ord(s[1]) == 126:
            raise ParseError("8-byte graph6 sizes (n > 258047) not supported")
        if len(s) < 4:
            raise ParseError("truncated graph6 size header")
        n = 0
        for ch in s[1:4]:
            val = ord(ch) - 63
            if not 0 <= val < 64:
                raise ParseError(f"invalid character {ch!r} in graph6 size")
            n = (n << 6) | val
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
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ParseError(f"invalid character {ch!r} in graph6 body")
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, [(x, y) for x in range(a) for y in range(b)])


def disjoint_union(graphs) -> Graph:
    """Disjoint union with consecutive relabeling, in the given order."""
    graphs = list(graphs)
    total = sum(g.n for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(total, edges)


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

def random_regular(n: int, d: int, seed, max_attempts: int = 10 ** 6) -> Graph:
    """Uniform-stub pairing with full rejection of loops and parallel edges.

    All randomness comes from the seed; identical seeds give identical graphs.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    rng = random.Random(seed)
    stubs0 = [v for v in range(n) for _ in range(d)]
    for _ in range(max_attempts):
        stubs = stubs0[:]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, edges)
    raise CapExceeded(f"no simple {d}-regular pairing found in {max_attempts} attempts; "
                      "raise it with random_regular(max_attempts=...), which no CLI "
                      "flag sets")


def random_graph(n: int, p: float, seed) -> Graph:
    """Seeded Erdos-Renyi G(n, p)."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def as_bipartite(g: Graph):
    """Reify a 2-colorable Graph as a BipartiteGraph (None if not possible).

    X keeps the color-0 vertices in increasing order, Y the color-1 ones.
    """
    split = g.bipartition()
    if split is None:
        return None
    x_side, y_side = split
    x_index = {v: i for i, v in enumerate(x_side)}
    y_index = {v: i for i, v in enumerate(y_side)}
    edges = []
    for u, v in g.edges:
        if u in x_index:
            edges.append((x_index[u], y_index[v]))
        else:
            edges.append((x_index[v], y_index[u]))
    return BipartiteGraph(len(x_side), len(y_side), edges)
