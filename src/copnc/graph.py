"""Cubic multigraph core: representation, generators, formats, classic subroutines.

Graphs here are cubic (every vertex has degree exactly 3) and may contain
loops and parallel edges.  Because parallel edges are first-class citizens,
every edge carries a dense integer id and all higher-level structures
reference edges by id, never by endpoint pair.

Conventions:
  * Vertices are 0..n-1, edges are 0..m-1 in construction order.
  * Each edge e owns two *darts* (edge-ends) 2*e and 2*e+1.  Dart 2*e sits
    at the first endpoint, 2*e+1 at the second.  A loop at v owns both of
    its darts at v.  The mate of dart d is d ^ 1.
  * Every vertex owns exactly 3 darts ("slots"), listed in increasing
    order, so slot order is fixed by edge id.  The two tables are
    vertex_darts (vertex -> its slots) and dart_vertices (dart -> its
    vertex).

Graphs are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from heapq import heappop, heappush
from math import isqrt
from typing import Iterator, Optional, Sequence

RED, BLUE, YELLOW = 0, 1, 2


class NonCubic(ValueError):
    """Some vertex does not have degree exactly 3 (loops counted twice)."""

    def __init__(self, vertex: int, degree: int):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree}, expected 3")


class Malformed(ValueError):
    """Unparseable graph input (graph6 or edge-list text)."""


class BadParameter(ValueError):
    """Unknown family name or invalid family parameter."""


class CubicGraph:
    """An immutable cubic multigraph with identity-bearing edges."""

    __slots__ = ("n", "m", "endpoints", "vertex_darts", "dart_vertices")

    def __init__(self, n: int, endpoints: Sequence[tuple[int, int]]):
        """Edge e joins endpoints[e] = (u, v), two ints in 0..n-1, taken as
        they are: an endpoint that is not an int (a float, a str, None) is
        Malformed, never truncated."""
        endpoints = tuple(map(tuple, endpoints))
        dart_vertex = []
        slots: list[list[int]] = [[] for _ in range(n)]
        try:
            for e, (u, v) in enumerate(endpoints):
                if not (0 <= u < n and 0 <= v < n):
                    raise Malformed(f"edge {e} endpoint out of range: ({u}, {v})")
                slots[u].append(2 * e)
                slots[v].append(2 * e + 1)
                dart_vertex.append(u)
                dart_vertex.append(v)
        except TypeError:
            # a non-int compares with no int or indexes no list
            raise Malformed(f"edge {e} endpoints are not ints: {endpoints[e]!r}") from None
        for v in range(n):
            if len(slots[v]) != 3:
                raise NonCubic(v, len(slots[v]))
        self.n = n
        self.m = len(endpoints)
        self.endpoints = endpoints
        self.vertex_darts = tuple(map(tuple, slots))
        self.dart_vertices = tuple(dart_vertex)

    # -- dart helpers ---------------------------------------------------

    def edges_at(self, v: int) -> tuple[int, int, int]:
        """Edge ids incident to v; a loop appears twice."""
        a, b, c = self.vertex_darts[v]
        return (a >> 1, b >> 1, c >> 1)

    def other_end(self, e: int, v: int) -> int:
        u, w = self.endpoints[e]
        return w if u == v else u

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.endpoints)

    # -- value semantics ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicGraph)
            and self.n == other.n
            and self.endpoints == other.endpoints
        )

    def __hash__(self) -> int:
        return hash((self.n, self.endpoints))

    def __repr__(self) -> str:
        return f"CubicGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# graph6 (simple graphs only) and plain edge-list text (multigraphs)
# ---------------------------------------------------------------------------


# a graph6 byte's six bits, most significant first
_SIX_BITS = tuple(format(b, "06b") for b in range(64))


def parse_graph6(line: str) -> CubicGraph:
    """Parse one graph6 line into a cubic graph.

    graph6 encodes simple graphs only; multigraphs travel as edge-list text
    (see parse_edge_list).  Edges come out in lexicographic pair order,
    which is the column-major order of the upper triangle used by graph6.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Malformed("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise Malformed("graph6 characters out of range")
    if data[0] == 63:
        if len(data) < 4:
            raise Malformed("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n == 0:
        raise Malformed("graph6 graph has no vertices")
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) < need:
        raise Malformed(f"graph6 body too short for n={n}")
    # one '0' or '1' per vertex pair, then the padding of the last byte
    bits = "".join([_SIX_BITS[b] for b in body[:need]])
    edges = []
    i = bits.find("1")
    while 0 <= i < pairs:
        # pair i is (u, v) with i = v(v-1)/2 + u and u < v
        v = (isqrt(8 * i + 1) + 1) // 2
        edges.append((i - v * (v - 1) // 2, v))
        i = bits.find("1", i + 1)
    edges.sort()  # edge ids in lexicographic pair order, not column-major
    return CubicGraph(n, edges)


def to_graph6(g: CubicGraph) -> str:
    """Encode a simple graph as one graph6 line; raises Malformed on multigraphs."""
    seen = set()
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in g.endpoints:
        if u == v or (min(u, v), max(u, v)) in seen:
            raise Malformed("graph6 cannot encode loops or parallel edges")
        seen.add((min(u, v), max(u, v)))
        adj[u][v] = adj[v][u] = True
    if g.n > 62:
        raise Malformed("graph6 encoder limited to n <= 62")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if adj[u][v] else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        b = 0
        for k in range(6):
            b = (b << 1) | bits[i + k]
        out.append(chr(b + 63))
    return "".join(out)


# a comment runs from '#' to the next line boundary, the boundaries being
# exactly those of str.splitlines; compiled on the first parse, not on import
_COMMENT = "#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*"


def _int_or_none(token: str) -> Optional[int]:
    try:
        return int(token)
    except ValueError:
        return None


def parse_edge_list(text: str) -> list[CubicGraph]:
    """Parse edge-list text: records of a "n m" header followed by m "u v" lines.

    A file may hold several records back to back.  Blank lines and lines
    starting with '#' are ignored.  A header must have n > 0 and 3n = 2m,
    as every cubic graph does.
    """
    tokens = re.sub(_COMMENT, "", text).split()
    if len(tokens) % 2:
        raise Malformed("odd token count in edge-list text")
    try:
        nums: list = list(map(int, tokens))
        bad = False
    except ValueError:
        nums, bad = list(map(_int_or_none, tokens)), True  # a bad token reads None
    graphs = []
    i = 0
    while i < len(nums):
        n, m = nums[i], nums[i + 1]
        if n is None or m is None:
            raise Malformed(f"bad header near record {len(graphs)}")
        if n <= 0 or 3 * n != 2 * m:
            # checked before CubicGraph allocates n slot lists
            raise Malformed(f"record {len(graphs)}: header '{n} {m}' needs n > 0 and 3n = 2m")
        i += 2
        if 2 * m > len(nums) - i:
            raise Malformed("edge-list record truncated")
        ends = nums[i : i + 2 * m]
        if bad and None in ends:
            j = i + (ends.index(None) & ~1)
            raise Malformed(f"bad edge line '{tokens[j]} {tokens[j + 1]}'")
        i += 2 * m
        pairs = iter(ends)
        graphs.append(CubicGraph(n, list(zip(pairs, pairs))))
    if not graphs:
        raise Malformed("no records in edge-list text")
    return graphs


# ---------------------------------------------------------------------------
# Generators.  Vertex numbering is fixed and documented so that edge ids and
# certificates are reproducible byte for byte.
# ---------------------------------------------------------------------------


def _theta() -> CubicGraph:
    # two vertices joined by three parallel edges
    return CubicGraph(2, [(0, 1), (0, 1), (0, 1)])


def _k4() -> CubicGraph:
    return CubicGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def _k33() -> CubicGraph:
    # parts {0,1,2} and {3,4,5}, edges in lexicographic order
    return CubicGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def _prism() -> CubicGraph:
    # triangles 0-1-2 and 3-4-5, rungs i -- i+3
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    return CubicGraph(6, edges)


def _cube() -> CubicGraph:
    # vertices are 3-bit strings, edges flip one bit
    edges = []
    for v in range(8):
        for k in range(3):
            u = v ^ (1 << k)
            if v < u:
                edges.append((v, u))
    return CubicGraph(8, edges)


def _petersen() -> CubicGraph:
    # outer cycle 0..4, spokes i -- 5+i, inner pentagram 5+i -- 5+((i+2) mod 5)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return CubicGraph(10, edges)


def _flower(k: int) -> CubicGraph:
    """Flower graph on 4k vertices (snark for odd k >= 5, Tietze's graph at k=3).

    Numbering: u_i -> i-1, v_i -> k+i-1, w_i -> 2k+i-1, t_i -> 3k+i-1 for
    1 <= i <= k.  Edge order: the k-cycle u_1..u_k, then the 2k-cycle
    w_1..w_k t_1..t_k, then per i the spokes v_i u_i, v_i w_i, v_i t_i.
    """
    if k < 3 or k % 2 == 0:
        raise BadParameter(f"flower parameter must be odd and >= 3, got {k}")
    u = lambda i: i - 1
    v = lambda i: k + i - 1
    w = lambda i: 2 * k + i - 1
    t = lambda i: 3 * k + i - 1
    edges = [(u(i), u(i % k + 1)) for i in range(1, k + 1)]
    edges += [(w(i), w(i + 1)) for i in range(1, k)]
    edges.append((w(k), t(1)))
    edges += [(t(i), t(i + 1)) for i in range(1, k)]
    edges.append((t(k), w(1)))
    for i in range(1, k + 1):
        edges += [(v(i), u(i)), (v(i), w(i)), (v(i), t(i))]
    return CubicGraph(4 * k, edges)


def _goldberg(k: int) -> CubicGraph:
    """Goldberg graph on 8k vertices (snark for odd k >= 3).

    Block j (0 <= j < k) holds vertices b(j,i) = 8j + i - 1 for roles
    i = 1..8: an inner pentagon 1-2-3-4-5, a hub vertex 6 on 1, outer
    vertices 7 on 2 and 8 on 5, and the outer chord 7-8.  Blocks are
    chained by the hub cycle 6_j -- 6_{j+1} and the two interleaving
    cycles 4_j -- 3_{j+1} and 7_j -- 8_{j+1} (indices mod k).  The full
    adjacency is spelled out in the README and is gated by the snark
    validation tests (bridgeless, chromatic index four).

    Edge order: per block the nine internal edges
    (1,2),(2,3),(3,4),(4,5),(5,1),(1,6),(2,7),(5,8),(7,8), then per block
    the three chaining edges (6_j,6_{j+1}),(4_j,3_{j+1}),(7_j,8_{j+1}).
    """
    if k < 3 or k % 2 == 0:
        raise BadParameter(f"goldberg parameter must be odd and >= 3, got {k}")
    b = lambda j, i: 8 * (j % k) + i - 1
    edges = []
    for j in range(k):
        edges += [
            (b(j, 1), b(j, 2)),
            (b(j, 2), b(j, 3)),
            (b(j, 3), b(j, 4)),
            (b(j, 4), b(j, 5)),
            (b(j, 5), b(j, 1)),
            (b(j, 1), b(j, 6)),
            (b(j, 2), b(j, 7)),
            (b(j, 5), b(j, 8)),
            (b(j, 7), b(j, 8)),
        ]
    for j in range(k):
        edges += [
            (b(j, 6), b(j + 1, 6)),
            (b(j, 4), b(j + 1, 3)),
            (b(j, 7), b(j + 1, 8)),
        ]
    return CubicGraph(8 * k, edges)


_FAMILIES = {
    "theta": (_theta, False),
    "k4": (_k4, False),
    "k33": (_k33, False),
    "prism": (_prism, False),
    "cube": (_cube, False),
    "petersen": (_petersen, False),
    "flower": (_flower, True),
    "goldberg": (_goldberg, True),
}


def generate(family: str, k: Optional[int] = None) -> CubicGraph:
    """Build a named graph; flower and goldberg take an odd parameter k >= 3."""
    try:
        fn, takes_k = _FAMILIES[family]
    except KeyError:
        raise BadParameter(f"unknown family '{family}'") from None
    if takes_k:
        if k is None:
            raise BadParameter(f"family '{family}' needs a parameter")
        return fn(k)
    if k is not None:
        raise BadParameter(f"family '{family}' takes no parameter")
    return fn()


def parse_spec(spec: str) -> tuple[str, Optional[int]]:
    """The family and parameter of a graph spec such as "petersen" or
    "flower:7", for generate; BadParameter when the parameter is not an
    int."""
    family, colon, param = spec.partition(":")
    try:
        return family, int(param) if colon else None
    except ValueError:
        raise BadParameter(f"bad parameter in graph spec '{spec}'") from None


# ---------------------------------------------------------------------------
# Classic subroutines
# ---------------------------------------------------------------------------


def is_bipartite(g: CubicGraph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """BFS 2-coloring; returns (True, side per vertex) or (False, None).

    Loops and odd cycles make the graph non bipartite.
    """
    dv = g.dart_vertices
    side: list[int] = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for d in g.vertex_darts[v]:
                w = dv[d ^ 1]
                if side[w] < 0:
                    side[w] = side[v] ^ 1
                    queue.append(w)
                elif side[w] == side[v]:
                    return False, None
    return True, tuple(side)


def bridges(g: CubicGraph) -> frozenset[int]:
    """Edge ids of all cut edges, by DFS lowpoint.

    The tree edge into each vertex is skipped *by id*, so a parallel copy
    of it still acts as a back edge and a digon is never a bridge.  Loops
    are never bridges.  The search runs on an explicit stack of
    (vertex, tree edge in, darts left), so its depth is not bounded by the
    interpreter's recursion limit.
    """
    dv = g.dart_vertices
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[int] = set()
    timer = 0
    for s in range(g.n):
        if disc[s] >= 0:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, iter(g.vertex_darts[s]))]
        while stack:
            v, pe, darts = stack[-1]
            for d in darts:
                e = d >> 1
                w = dv[d ^ 1]
                if w == v or e == pe:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, e, iter(g.vertex_darts[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                # v is done: hand its lowpoint to its parent
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > disc[u]:
                        out.add(pe)
    return frozenset(out)


def components(g: CubicGraph) -> list[list[int]]:
    """The vertices of each connected component, sorted, ordered by their
    lowest vertex."""
    darts, dv = g.vertex_darts, g.dart_vertices
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue, members = [s], [s]
        while queue:
            v = queue.pop()
            for d in darts[v]:
                w = dv[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
                    members.append(w)
        out.append(sorted(members))
    return out


def perfect_matchings(g: CubicGraph) -> Iterator[frozenset[int]]:
    """Enumerate all perfect matchings by backtracking, lowest vertex first.

    Loops never belong to a matching.  The sequence is empty exactly when
    no perfect matching exists.  Deterministic: edges are tried in id order.
    The search runs on an explicit stack of (vertex, next slot) frames, so
    its depth is not bounded by the interpreter's recursion limit.  A
    frame's vertex is the lowest one unmatched when it was pushed, and
    every vertex below it stays matched, so the next frame's vertex is
    looked for from there on.

    A pair v, w is refused when it leaves an unmatched neighbour of v or
    w with no unmatched partner across a non-loop edge.  No matching
    extends such a pair, so the sequence is the unpruned one.
    """
    n, slots, ends, at = g.n, g.vertex_darts, g.endpoints, g.dart_vertices
    matched = [False] * n
    chosen: list[int] = []  # chosen[k] is the edge frame k matched
    stack: list[list[int]] = []
    start = 0
    while True:
        while start < n and matched[start]:
            start += 1
        if start == n:
            yield frozenset(chosen)
        else:
            stack.append([start, 0])
        # give the top frame its next edge, popping the frames that have none
        while stack:
            frame = stack[-1]
            v = frame[0]
            if len(chosen) == len(stack):  # undo the frame's last edge
                a, b = ends[chosen.pop()]
                matched[a] = matched[b] = False
            while frame[1] < 3:
                e = slots[v][frame[1]] >> 1
                frame[1] += 1
                a, b = ends[e]
                w = b if a == v else a
                if a == b or matched[w]:
                    continue
                matched[v] = matched[w] = True
                for d in slots[v] + slots[w]:
                    x = at[d ^ 1]
                    if matched[x]:
                        continue
                    p, q, r = slots[x]
                    y = at[p ^ 1]
                    if y != x and not matched[y]:
                        continue
                    y = at[q ^ 1]
                    if y != x and not matched[y]:
                        continue
                    y = at[r ^ 1]
                    if y != x and not matched[y]:
                        continue
                    break  # x is left with no partner
                else:
                    break
                matched[v] = matched[w] = False
            else:
                stack.pop()
                continue
            chosen.append(e)
            start = v + 1
            break
        else:
            return


def has_perfect_matching(g: CubicGraph) -> bool:
    return next(perfect_matchings(g), None) is not None


def is_perfect_matching(g: CubicGraph, m: frozenset[int]) -> bool:
    """True when the edge ids m are edges of g that meet every vertex
    exactly once (a loop meets its vertex twice)."""
    ends = [v for e in m if 0 <= e < g.m for v in g.endpoints[e]]
    return len(ends) == 2 * len(m) == g.n and len(set(ends)) == g.n


# class of an uncolored edge by the bitmask of colors in use at its ends:
# 0 when at most one color is left free, 1 when two are, 2 when all three
_CLASS = (2, 1, 1, 0, 1, 0, 0, 0)
# _NEXT[free][first]: the lowest color c >= first in the bitmask free, or -1
_NEXT = tuple(
    tuple(next((c for c in (RED, BLUE, YELLOW) if c >= first and free >> c & 1), -1) for first in range(4))
    for free in range(8)
)


def proper_3_edge_coloring(g: CubicGraph) -> Optional[tuple[int, ...]]:
    """First proper 3-edge-coloring in deterministic search order, or None.

    Colors are RED, BLUE, YELLOW = 0, 1, 2.  A graph with a loop has no
    proper edge coloring.  The search colors one edge at a time, always
    picking a most-constrained uncolored edge next, which exhausts quickly
    on the snark families used here: the lowest-id edge with at most one
    free color, else the lowest-id edge with the fewest.  It backtracks on
    an explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    if g.has_loop():
        return None
    m = g.m
    if m == 0:
        return ()
    ends, darts = g.endpoints, g.vertex_darts
    color = [-1] * m
    used = [0] * g.n  # bitmask of colors present at each vertex
    # break color symmetry: edge 0 is RED and the smallest other edge at its
    # first endpoint is BLUE; any proper coloring permutes into this form
    u0, w0 = ends[0]
    color[0] = RED
    used[u0] |= 1 << RED
    used[w0] |= 1 << RED
    e1 = min(e for e in g.edges_at(u0) if e != 0)
    u, v = ends[e1]
    color[e1] = BLUE
    used[u] |= 1 << BLUE
    used[v] |= 1 << BLUE
    # uncolored edges wait in three lazy min-heaps on edge id, one per
    # class; an entry counts while its edge is uncolored and of that class.
    # Coloring an edge changes the class of the edges next to it only.
    klass = [-1] * m
    heaps: tuple[list[int], list[int], list[int]] = ([], [], [])
    for e in range(m):
        if color[e] < 0:
            a, b = ends[e]
            klass[e] = _CLASS[used[a] | used[b]]
            heaps[klass[e]].append(e)  # ascending ids already form a heap
    # depth-first search on an explicit stack of the edges it has colored;
    # each edge tries its free colors in the order RED, BLUE, YELLOW
    stack: list[int] = []
    e, first = -1, RED  # e < 0: pick the lowest edge of the lowest class
    while True:
        if e < 0:
            for k in (0, 1, 2):
                heap = heaps[k]
                while heap and (color[heap[0]] >= 0 or klass[heap[0]] != k):
                    heappop(heap)
                if heap:
                    e = heap[0]
                    break
            else:
                return tuple(color)
        u, v = ends[e]
        c = _NEXT[~(used[u] | used[v]) & 7][first]
        if c >= 0:
            color[e] = c
            used[u] |= 1 << c
            used[v] |= 1 << c
            stack.append(e)
            e, first = -1, RED
        elif stack:
            # every color failed below the last colored edge: undo it, try its next
            e = stack.pop()
            u, v = ends[e]
            c = color[e]
            color[e] = klass[e] = -1  # refiled below, whatever its class was
            used[u] &= ~(1 << c)
            used[v] &= ~(1 << c)
            first = c + 1
        else:
            return None
        # refile the uncolored edges at u and v whose class changed
        for d in darts[u] + darts[v]:
            f = d >> 1
            if color[f] < 0:
                a, b = ends[f]
                k = _CLASS[used[a] | used[b]]
                if k != klass[f]:
                    klass[f] = k
                    heappush(heaps[k], f)


def color_classes(coloring: Sequence[int]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split an edge coloring into its three color classes."""
    out: list[set[int]] = [set(), set(), set()]
    for e, c in enumerate(coloring):
        out[c].add(e)
    return tuple(frozenset(s) for s in out)  # type: ignore[return-value]
