"""Constructions of normal odd partitions and conformal compatible triples.

Three constructive routes live here:

  * matching route: a perfect matching M plus an orientation of the
    complementary 2-factor yields the all-length-3 partition whose trails
    are in(u), uv, out(v) for uv in M; it is conformal to M.
  * bipartite route: a proper 3-edge-coloring of a bipartite cubic graph
    yields three compatible all-length-3 partitions, one conformal to each
    color class, by typing each trail as (previous color at the black end,
    middle color, next color at the white end).
  * coloring route: for any 3-edge-colorable cubic graph, three compatible
    partitions conformal to the three color classes exist.  On a simple
    triangle-free graph they are found by seeding with the matching route
    and shrinking the agreement set A with conformal switches; digons and
    triangles are first contracted away, in place and in the input's ids,
    and afterwards re-expanded by surgeries that preserve normality,
    oddness, conformality and compatibility.  A surgery rewrites the
    marks at the four or three vertices of its site and leaves every
    other mark alone, so the triple is lifted as three markings and
    decoded into trails once.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence

from .graph import (
    BLUE,
    RED,
    YELLOW,
    CubicGraph,
    color_classes,
    components,
    is_bipartite,
    is_perfect_matching,
    perfect_matchings,
    proper_3_edge_coloring,
)
from .partition import (
    NormalPartition,
    _Record,
    agreement,
    is_conformal,
    is_odd,
    trails_from_marking,
)
from .switching import conformal_switch


class NoMatching(ValueError):
    """The graph has no perfect matching, so no odd partition either."""


class NotBipartite(ValueError):
    """The bipartite construction needs a bipartite graph."""


class NotThreeEdgeColorable(ValueError):
    """The coloring route needs chromatic index 3."""


class NotConformalTriple(ValueError):
    """The supplied triple is not a valid conformal compatible triple."""


class SearchExhausted(RuntimeError):
    """The improvement search ran out of budget; not expected to happen."""


# ---------------------------------------------------------------------------
# Matching route
# ---------------------------------------------------------------------------


def two_factor_cycles(g: CubicGraph, m: frozenset[int]) -> list[list[int]]:
    """Cycles of the 2-factor g - m, each as the list of darts walked in
    the canonical direction: start at the cycle's lowest vertex and leave
    along its lower-numbered 2-factor dart.  Cycles sorted by lowest
    vertex.  A loop forms a one-dart cycle, a digon a two-dart cycle.
    """
    m = frozenset(m)
    cyc_darts = [
        [d for d in g.vertex_darts[v] if (d >> 1) not in m] for v in range(g.n)
    ]
    for v in range(g.n):
        if len(cyc_darts[v]) != 2:
            raise ValueError(f"edge set is not a perfect matching at vertex {v}")
    seen = [False] * (2 * g.m)
    dv = g.dart_vertices
    cycles = []
    for v0 in range(g.n):
        d0 = cyc_darts[v0][0]
        if seen[d0]:
            continue
        cycle = []
        d = d0
        while True:
            cycle.append(d)
            seen[d] = True
            nxt = d ^ 1
            seen[nxt] = True
            w = dv[nxt]
            a, b = cyc_darts[w]
            d = b if a == nxt else a
            if d == d0:
                break
        cycles.append(cycle)
    return cycles


def nop_from_matching(
    g: CubicGraph,
    m: Optional[frozenset[int]] = None,
    orientation: Optional[Sequence[int]] = None,
) -> NormalPartition:
    """The all-length-3 partition built from a perfect matching.

    Each matching edge uv becomes the trail  x -- u --uv-- v -- y  where
    ux and vy are the 2-factor edges leaving u and v in its orientation,
    so every vertex marks its incoming 2-factor dart, and the partition is
    decoded from that marking.  The middle edge is the unique odd edge of
    its trail, so the partition is conformal to m.  With m omitted the
    first perfect matching is used (NoMatching when none exists).
    """
    if m is None:
        m = next(perfect_matchings(g), None)
        if m is None:
            raise NoMatching("graph has no perfect matching")
    m = frozenset(m)
    p = trails_from_marking(g, _incoming_marks(g, m, orientation))
    if not is_conformal(p, m):  # raised, not asserted, so python -O keeps it
        raise AssertionError(f"matching route: partition not conformal to {sorted(m)}")
    return p


def _incoming_marks(
    g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]]
) -> list[int]:
    """nop_from_matching's marking: every vertex marks its incoming
    2-factor dart.

    Each cycle of g - m is walked once, in two_factor_cycles' order and
    direction.  orientation gives one bit per cycle in that order
    (default: all 0); bit 1 walks the cycle the other way, so each step
    writes the dart it leaves by instead of the one it arrives by.  A
    loop's vertex marks the loop's upper dart either way.
    """
    if not is_perfect_matching(g, m):
        raise ValueError("edge set is not a perfect matching")
    darts, dv = g.vertex_darts, g.dart_vertices
    # rest[v] sums v's two 2-factor darts: a walk entering v by a leaves by rest[v] - a
    rest = [a + b + c for a, b, c in darts]
    for e in m:
        u, v = g.endpoints[e]
        rest[u] -= 2 * e
        rest[v] -= 2 * e + 1
    marking = [-1] * g.n
    bits = iter(orientation or ())
    cycles = 0
    for v0 in range(g.n):
        if marking[v0] >= 0:
            continue
        cycles += 1
        x, y, _ = darts[v0]
        d = d0 = y if x >> 1 in m else x
        arriving = not next(bits, 0) or dv[d0 ^ 1] == v0
        while True:
            w = d ^ arriving
            marking[dv[w]] = w
            d = rest[dv[d ^ 1]] - (d ^ 1)
            if d == d0:
                break
    if orientation is not None and len(orientation) != cycles:
        raise ValueError(f"orientation has {len(orientation)} bits for {cycles} cycles")
    return marking


# ---------------------------------------------------------------------------
# Conformal triples
# ---------------------------------------------------------------------------


class ConformalTriple(_Record):
    """Three pairwise compatible normal odd partitions, partitions[c]
    conformal to color class c of the coloring."""

    graph: CubicGraph
    coloring: tuple[int, ...]
    partitions: tuple[NormalPartition, NormalPartition, NormalPartition]

    def validate(self) -> None:
        classes = color_classes(self.coloring)
        for c, p in enumerate(self.partitions):
            if p.graph != self.graph:
                raise NotConformalTriple("partition on the wrong graph")
            if not is_odd(p):
                raise NotConformalTriple("partition not odd")
            if not is_conformal(p, classes[c]):
                raise NotConformalTriple(f"partition {c} not conformal to its class")
        if agreement(self.partitions):
            raise NotConformalTriple("partitions are not pairwise compatible")


def bipartite_triple(g: CubicGraph) -> ConformalTriple:
    """Three compatible all-length-3 partitions of a bipartite cubic graph,
    one conformal to each class of a proper 3-edge-coloring.

    For the partition conformal to color c, every c-colored edge uv with u
    on the black side and v on the white side is extended by the
    (c-1)-colored edge at u and the (c+1)-colored edge at v (colors mod 3),
    so black vertices mark their (c+1)-colored dart and white vertices
    their (c-1)-colored dart, and the triple of those markings is
    validated.
    """
    bip, side = is_bipartite(g)
    if not bip:
        raise NotBipartite("graph is not bipartite")
    coloring = proper_3_edge_coloring(g)
    assert coloring is not None  # bipartite cubic graphs are 3-edge-colorable
    at = [{coloring[d >> 1]: d for d in g.vertex_darts[v]} for v in range(g.n)]
    marks = [[at[v][(c + 1 if side[v] == 0 else c - 1) % 3] for v in range(g.n)] for c in (RED, BLUE, YELLOW)]
    return _checked(g, coloring, marks)


def _conformal_seed(
    g: CubicGraph,
    classes: tuple[frozenset[int], frozenset[int], frozenset[int]],
    orientations: tuple[Optional[Sequence[int]], ...] = (None, None, None),
) -> list[list[int]]:
    """The mark lists of nop_from_matching for the three color classes,
    undecoded: the triple's final validation checks what they become."""
    return [_incoming_marks(g, classes[c], orientations[c]) for c in (RED, BLUE, YELLOW)]


def _ball(g: CubicGraph, centers: Sequence[int], radius: int = 2) -> list[int]:
    dv = g.dart_vertices
    seen = set(centers)
    frontier = list(centers)
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for d in g.vertex_darts[v]:
                w = dv[d ^ 1]
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def conformal_triple(
    g: CubicGraph,
    coloring: Optional[Sequence[int]] = None,
    seed: int = 0,
    budget: int = 10**6,
) -> ConformalTriple:
    """Compatible triple conformal to a proper coloring (one is computed
    when none is given) of a simple triangle-free cubic graph: the descent
    on the agreement set A (see _descent), decoded and validated once."""
    if coloring is None:
        coloring = proper_3_edge_coloring(g)
        if coloring is None:
            raise NotThreeEdgeColorable("graph has chromatic index 4")
    coloring = tuple(coloring)
    return _checked(g, coloring, _descent(g, coloring, seed=seed, budget=budget))


def _checked(g: CubicGraph, coloring: tuple[int, ...], marks: Sequence[Sequence[int]]) -> ConformalTriple:
    """The triple of three mark lists on g, validated."""
    triple = ConformalTriple(g, coloring, tuple(NormalPartition(g, mk) for mk in marks))
    triple.validate()
    return triple


def _descent(g: CubicGraph, coloring: tuple[int, ...], seed: int = 0, budget: int = 10**6) -> list[list[int]]:
    """conformal_triple's three mark lists, by descent on the agreement
    set A; nothing is decoded or validated here.

    Seeds one partition per color class by the matching route, then runs
    on their three mark lists with one rule: while A is not empty, take
    one vertex out of A with one conformal switch.  A switch rewrites one
    mark, so it changes A at most at its own vertex, and only switches at
    vertices of A are tried: first each partition's switch at v = min(A),
    then each partition's switch at each vertex of A within distance two
    of v or of the far end of v's doubly marked edge.  The first that
    takes its vertex out of A is kept; each one before it is undone by one
    write.  So A only loses vertices, and min(A) is found by a pointer
    that only moves up.

    The guided step at v is written inline: partition c's switch at v
    would mark v's passage dart off class c (see conformal_switch), so
    whether it takes v out of A is read off the three marks at v, and
    conformal_switch, which walks a trail to tell whether that mark
    decodes, runs only when it would.  A switch that would leave v in A
    is counted against the budget and passed over, as it would be undone
    at once.

    When no candidate helps, a random conformal walk drawn from seed runs
    until |A| falls below its value at the start of the walk; after 200
    tries without that it re-seeds with random cycle orientations, and
    goes back to the walk's starting state unless the fresh seed is as
    good.  The budget caps the switches tried; exceeding it raises
    SearchExhausted, which the theory says should not happen.  The seed
    and every move stay mark lists.
    """
    classes = color_classes(coloring)
    marks = _conformal_seed(g, classes)
    m0, m1, m2 = marks
    slots = g.vertex_darts
    rng = random.Random(seed)
    spent = 0

    def agrees(v: int) -> bool:
        a, b, c = m0[v] >> 1, m1[v] >> 1, m2[v] >> 1
        return a == b or a == c or b == c

    def move(c: int, v: int) -> Optional[int]:
        """The mark of partition c at v after its conformal switch, or None."""
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchExhausted(f"conformal search exceeded {budget} switches")
        return conformal_switch(g, marks[c], classes[c], v)

    agree = [agrees(v) for v in range(g.n)]
    size = sum(agree)

    low = 0  # no vertex below low is in A
    # "fallback" sticks, so the final line tells whether the walk ever ran
    strategy = "seed"
    while size:
        while not agree[low]:
            low += 1
        v = low
        x, y, z = slots[v]
        e0, e1, e2 = m0[v] >> 1, m1[v] >> 1, m2[v] >> 1
        kept = False
        for c, mk, o1, o2 in ((RED, m0, e1, e2), (BLUE, m1, e0, e2), (YELLOW, m2, e0, e1)):
            spent += 1
            if spent > budget:
                raise SearchExhausted(f"conformal search exceeded {budget} switches")
            d = mk[v]
            p, q = (y, z) if d == x else ((x, z) if d == y else (x, y))
            e = q >> 1 if p >> 1 in classes[c] else p >> 1
            if e != o1 and e != o2 and o1 != o2:
                d = conformal_switch(g, mk, classes[c], v)
                if d is not None:
                    mk[v] = d
                    agree[v] = False
                    size -= 1
                    kept = True
                    break
        if not kept:
            w = g.other_end(e0 if e0 == e1 or e0 == e2 else e1, v)
            near = [u for u in _ball(g, [v, w], 2) if agree[u]]
            for c, u in [(c, u) for c in (RED, BLUE, YELLOW) for u in near]:
                d = move(c, u)
                if d is None:
                    continue
                old, marks[c][u] = marks[c][u], d
                if not agrees(u):
                    agree[u] = False
                    size -= 1
                    kept = True
                    break
                marks[c][u] = old
        if kept:
            if strategy == "seed":
                strategy = "guided"
            continue
        strategy = "fallback"
        low = 0  # the walk may put any vertex into A
        start, start_size = [list(mk) for mk in marks], size
        for _ in range(200):
            c, v = rng.randrange(3), rng.randrange(g.n)
            d = move(c, v)
            if d is None:
                continue
            marks[c][v] = d
            now = agrees(v)
            size += now - agree[v]
            agree[v] = now
            if size < start_size:
                break
        else:
            cycles = [len(two_factor_cycles(g, classes[c])) for c in range(3)]
            orientations = tuple(
                tuple(rng.randrange(2) for _ in range(cycles[c])) for c in range(3)
            )
            fresh = _conformal_seed(g, classes, orientations)
            # |A| of the fresh seed, read off its mark lists
            if sum(len({mk[v] >> 1 for mk in fresh}) < 3 for v in range(g.n)) <= start_size:
                start = fresh
            for mk, new in zip(marks, start):
                mk[:] = new  # in place: agrees reads m0, m1 and m2
            agree = [agrees(v) for v in range(g.n)]
            size = sum(agree)
    import logging  # here, so that importing the library does not load it

    logging.getLogger(__name__).debug("conformal triple reached A=0 via %s", strategy)
    return marks


# ---------------------------------------------------------------------------
# Digon and triangle surgeries
# ---------------------------------------------------------------------------


class Contraction:
    """A cubic multigraph contracted in place, in the ids of its input.

    Vertices keep their ids and die when contracted (ends and darts turn
    None).  Edges keep theirs, and the edge each digon contraction creates
    takes the next id: m, m+1, ...  A surgery keeps the orientation of
    every surviving edge and each vertex's darts sorted, so the live ids
    in increasing order are the labelling that an order-preserving
    compaction gives, and core() builds that graph once.

    Candidate digons wait in a lazy min-heap of edge ids, candidate
    triangles in one of sorted vertex triples; an entry is checked when it
    reaches the top.  So digon() returns the lowest pair of parallel
    non-loop edges of the current graph (the first edge in id order that
    has an earlier parallel edge, with the lowest such edge), and
    triangle() its lexicographically lowest triangle.  A surgery creates
    adjacencies only at the site's surviving vertices, so only those are
    filed again, and two live vertices never stop being adjacent, so a
    triangle entry is valid while its three vertices live.  Each surgery
    costs O(log n).
    """

    def __init__(self, g: CubicGraph, coloring: Sequence[int]):
        self.ends: list[Optional[list[int]]] = [list(p) for p in g.endpoints]
        self.color = list(coloring)
        self.darts: list[Optional[list[int]]] = [list(ds) for ds in g.vertex_darts]
        self.n = g.n  # live vertices
        self.digons: list[int] = []
        self.triangles: list[tuple[int, int, int]] = []
        # file the lowest vertex of each digon (its other end, above it, is
        # a repeated neighbor) and of each triangle (two adjacent neighbors
        # above it); asking only the first neighbor of a pair to be above v
        # files some other site vertices too, and the lazy heaps take the
        # duplicates
        dv = g.dart_vertices
        nbrs = [(dv[a ^ 1], dv[b ^ 1], dv[c ^ 1]) for a, b, c in g.vertex_darts]
        for v, (a, b, c) in enumerate(nbrs):
            if v < a and (a == b or a == c or b in nbrs[a] or c in nbrs[a]) or v < b and (b == c or c in nbrs[b]):
                self.file(v)

    def far(self, d: int) -> int:
        """The vertex at the other end of dart d."""
        return self.ends[d >> 1][~d & 1]

    def _parallel(self, e: int) -> int:
        """The lowest edge parallel to e with a lower id, or -1."""
        u, v = self.ends[e]
        if u == v:
            return -1
        return next((d >> 1 for d in self.darts[u] if d >> 1 < e and self.far(d) == v), -1)

    def file(self, v: int) -> None:
        """Push the digons and triangles through v onto the heaps."""
        ends, darts = self.ends, self.darts
        nb: list[int] = []
        for d in darts[v]:  # in edge id order: a repeated neighbor is a digon's later edge
            w = ends[d >> 1][~d & 1]
            if w in nb:
                heappush(self.digons, d >> 1)
            elif w != v:
                nb.append(w)
        nb.sort()
        for i, p in enumerate(nb):
            around = [ends[d >> 1][~d & 1] for d in darts[p]]
            for q in nb[i + 1 :]:
                if q in around:
                    heappush(self.triangles, tuple(sorted((v, p, q))))

    def digon(self) -> Optional[tuple[int, int]]:
        heap = self.digons
        while heap:
            e = heap[0]
            if self.ends[e] is not None:
                f = self._parallel(e)
                if f >= 0:
                    return f, e
            heappop(heap)
        return None

    def triangle(self) -> Optional[tuple[int, int, int]]:
        heap = self.triangles
        while heap:
            if all(self.darts[w] is not None for w in heap[0]):
                return heap[0]
            heappop(heap)
        return None

    def core(self) -> tuple[CubicGraph, tuple[int, ...], list[int], list[int]]:
        """The contracted graph compacted in id order, its coloring, and
        the ids of its vertices and of its edges."""
        vids = [v for v, ds in enumerate(self.darts) if ds is not None]
        eids = [e for e, p in enumerate(self.ends) if p is not None]
        core = _compacted(len(self.darts), [self.ends[e] for e in eids], vids)
        return core, tuple(self.color[e] for e in eids), vids, eids


class _DigonSite(NamedTuple):
    """One digon contraction, in the ids it was made in.  Each side is
    (outer vertex, digon vertex, dart of the hanging edge at the outer
    vertex); at_u[c] is the dart at the first side's digon vertex of the
    digon edge of color c, and -1 for rho, the hanging edges' color."""

    digon: tuple[int, int]
    exy: int
    rho: int
    sides: tuple[tuple[int, int, int], tuple[int, int, int]]
    at_u: tuple[int, int, int]


class _TriangleSite(NamedTuple):
    """One triangle contraction, in the ids it was made in; tri[0]
    survives.  For each color c, outer[c] is the outside edge of that
    color, inherit[c] the triangle vertex it hangs from, and tri_marks[c]
    the (vertex, dart) pairs that mark the triangle edge of color c from
    both ends; that edge is the one opposite inherit[c]."""

    tri: tuple[int, int, int]
    outer: tuple[int, int, int]
    inherit: tuple[int, int, int]
    tri_marks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def digon_contract(state: Contraction, digon: tuple[int, int]) -> _DigonSite:
    """Collapse a digon pair and its two hanging edges into one new edge
    whose color is the shared color of the hanging edges."""
    ends, darts = state.ends, state.darts
    u, v = ends[digon[0]]
    assert set(ends[digon[1]]) == {u, v} and u != v
    du = next(d for d in darts[u] if d >> 1 not in digon)
    dv = next(d for d in darts[v] if d >> 1 not in digon)
    x, y = state.far(du), state.far(dv)
    rho = state.color[du >> 1]
    assert state.color[dv >> 1] == rho, "hanging edges of a properly colored digon share a color"
    assert x not in (u, v) and y not in (u, v) and x != y
    at_u = [-1, -1, -1]
    for e in digon:
        at_u[state.color[e]] = 2 * e + (ends[e][0] != u)
    exy = len(ends)
    ends.append([x, y])
    state.color.append(rho)
    # exy has the highest id, so appending its darts keeps x's and y's sorted
    darts[x].remove(du ^ 1)
    darts[x].append(2 * exy)
    darts[y].remove(dv ^ 1)
    darts[y].append(2 * exy + 1)
    for e in (*digon, du >> 1, dv >> 1):
        ends[e] = None
    darts[u] = darts[v] = None
    state.n -= 2
    state.file(x)
    state.file(y)
    return _DigonSite(tuple(digon), exy, rho, ((x, u, du ^ 1), (y, v, dv ^ 1)), tuple(at_u))


def triangle_contract(state: Contraction, tri: tuple[int, int, int]) -> _TriangleSite:
    """Collapse a triangle to its lowest vertex, which inherits the three
    outside edges with their colors."""
    ends, darts, color = state.ends, state.darts, state.color
    a, b, c = tri
    # one pass over the triangle's nine darts: each triangle edge is seen
    # from both ends and filed from its tail dart (2t, at ends[t][0])
    tri_edges, tri_marks, outer, inherit, out_darts = [], [None, None, None], [-1, -1, -1], [-1, -1, -1], []
    for w in tri:
        for d in darts[w]:
            e = d >> 1
            f = ends[e][~d & 1]
            if f != a and f != b and f != c:
                outer[color[e]] = e
                inherit[color[e]] = w
                out_darts.append(d)
            elif not d & 1:
                tri_edges.append(e)
                tri_marks[color[e]] = ((w, d), (f, d + 1))
    assert len(out_darts) == 3 == len(tri_edges), "triangle vertices carry one outside edge each"
    assert -1 not in inherit and None not in tri_marks, "the colors at a triangle are all distinct"
    for d in out_darts:
        ends[d >> 1][d & 1] = a
    darts[a] = sorted(out_darts)
    for t in tri_edges:
        ends[t] = None
    darts[b] = darts[c] = None
    state.n -= 2
    state.file(a)
    return _TriangleSite(tuple(tri), tuple(outer), tuple(inherit), tuple(tri_marks))


def _lift_digon(site: _DigonSite, marks: Sequence[list[int]]) -> tuple[int, int, int, int]:
    """Lift the three markings across one digon, in place, and return the
    vertices whose marks the surgery rewrote.

    The contracted edge exy was colored rho.  The role frame is read off
    the contracted marking: x is the lowest end of exy that marks it in a
    partition other than rho's, beta is that partition, and u is the digon
    vertex next to x.  A mark on exy becomes the hanging edge at its end.
    At u the rho, beta and gamma partitions mark the gamma digon edge, the
    hanging edge and the beta digon edge; at v they mark the beta digon
    edge, the gamma digon edge and the hanging edge.  Every other mark
    stays.
    """
    exy, rho = site.exy, site.rho
    cands = sorted(
        (o, c)
        for o, _, _ in site.sides
        for c in (RED, BLUE, YELLOW)
        if c != rho and marks[c][o] >> 1 == exy
    )
    if not cands:
        raise NotConformalTriple("contracted edge is marked nowhere outside rho")
    x, beta = cands[0]
    gamma = 3 - rho - beta
    flip = x != site.sides[0][0]  # u is the second side's digon vertex
    (x, u, hx), (y, v, hy) = site.sides[::-1] if flip else site.sides
    # each digon edge's dart at u; its mate is the dart at v
    d_beta, d_gamma = site.at_u[beta] ^ flip, site.at_u[gamma] ^ flip
    at_u = {rho: d_gamma, beta: hx ^ 1, gamma: d_beta}
    at_v = {rho: d_beta ^ 1, beta: d_gamma ^ 1, gamma: hy ^ 1}
    for c, mk in enumerate(marks):
        if mk[x] >> 1 == exy:
            mk[x] = hx
        if mk[y] >> 1 == exy:
            mk[y] = hy
        mk[u], mk[v] = at_u[c], at_v[c]
    return x, y, u, v


def _lift_triangle(site: _TriangleSite, marks: Sequence[list[int]]) -> tuple[int, int, int]:
    """Lift the three markings across one vertex-to-triangle expansion, in
    place, and return the triangle, whose marks the surgery rewrote.

    In each partition the inheritor R of the contracted vertex's marked
    edge marks that edge, and the passage at the contracted vertex is
    routed through R.  The other two inheritors both mark the triangle
    edge between them, a trail of length 1; in a proper coloring it is the
    triangle edge of the marked edge's color.  Every other mark stays.
    """
    for mk in marks:
        d = mk[site.tri[0]]
        k = site.outer.index(d >> 1)
        mk[site.inherit[k]] = d
        (p, dp), (q, dq) = site.tri_marks[k]
        mk[p], mk[q] = dp, dq
    return site.tri


# ---------------------------------------------------------------------------
# The general route
# ---------------------------------------------------------------------------


def _base_conformal_triple(g: CubicGraph, coloring: tuple[int, ...]) -> ConformalTriple:
    """The conformal triple least by trails of a graph on at most 4
    vertices, among all solutions of the triple search whose table keeps
    partition c off color class c (each vertex's two color 3-cycles)."""
    from .search import _conformal_rows, _Search

    search = _Search(g, 3, allowed=_conformal_rows(g, color_classes(coloring)))
    triples = (tuple(NormalPartition(g, mk) for mk in sol) for sol in search.solutions())
    best = min(triples, key=lambda t: [p.trails for p in t], default=None)
    if best is None:
        raise SearchExhausted("no conformal triple on a base graph; should not happen")
    triple = ConformalTriple(g, coloring, best)
    triple.validate()
    return triple


def conformal_triple_general(g: CubicGraph, seed: int = 0) -> ConformalTriple:
    """Conformal compatible triple for any 3-edge-colorable cubic graph.

    Computes one proper coloring, contracts digons then triangles down to
    a simple triangle-free core (or a base graph on at most 4 vertices),
    solves the core, and replays the contractions backwards through the
    digon and triangle surgeries on the markings.

    The contraction runs in place on one Contraction of g, in g's vertex
    and edge ids, with the edges it creates numbered from m up.  Two lazy
    min-heaps pick the lowest digon, else the lowest triangle, of the
    graph contracted so far, and only the site's surviving vertices are
    filed again, so a surgery costs O(log n).  The core is compacted into
    a CubicGraph once, and its triple is carried back into g's ids.  Each
    lift rewrites the marks of its 3 or 4 site vertices in place, so the
    route costs O(n + surgeries * log n) besides the coloring and the core
    solve.  The lifted triple is decoded and validated once, on g.

    A disconnected graph is solved one component at a time, each cut out
    with its vertices and edges compacted in order and the coloring
    restricted to it, since the contraction stops at 4 live vertices in
    all and would otherwise run a component of 4 or fewer into a digon
    with no hanging edges.

    Raises NotThreeEdgeColorable when no proper coloring exists;
    SearchExhausted only if the core improvement search overruns its
    budget.
    """
    coloring = proper_3_edge_coloring(g)
    if coloring is None:
        raise NotThreeEdgeColorable("graph has chromatic index 4")
    coloring = tuple(coloring)
    parts = components(g)
    if len(parts) == 1:
        return _conformal_route(g, coloring, seed)
    marks = [[-1] * g.n for _ in range(3)]
    for vids in parts:
        eids = sorted({d >> 1 for v in vids for d in g.vertex_darts[v]})
        sub = _compacted(g.n, [g.endpoints[e] for e in eids], vids)
        part = _conformal_route(sub, tuple(coloring[e] for e in eids), seed, whole=False)
        _carry_marks(marks, [p.marked for p in part.partitions], vids, eids)
    return _checked(g, coloring, marks)


def _compacted(n: int, ends: Sequence[Sequence[int]], vids: Sequence[int]) -> CubicGraph:
    """The graph on the vertices vids (increasing) with the edges ends,
    both renumbered in order; orientations are kept."""
    new = [-1] * n
    for i, v in enumerate(vids):
        new[v] = i
    return CubicGraph(len(vids), [(new[u], new[v]) for u, v in ends])


def _carry_marks(marks: list[list[int]], sub: Sequence[Sequence[int]], vids: Sequence[int], eids: Sequence[int]) -> None:
    """Write the three mark lists sub of a compacted graph into marks, in
    the ids vids and eids it was compacted from."""
    for mk, part in zip(marks, sub):
        for w, d in zip(vids, part):
            mk[w] = 2 * eids[d >> 1] | (d & 1)


def _conformal_route(g: CubicGraph, coloring: tuple[int, ...], seed: int, whole: bool = True) -> ConformalTriple:
    """conformal_triple_general on a connected g with its coloring, decoded
    and validated once, on g: with no site, g is its own core, solved by
    conformal_triple (or the base search); else the core's mark lists are
    lifted undecoded.  whole=False leaves the validation to the caller."""
    state = Contraction(g, coloring)
    sites = []
    while state.n > 4:
        digon = state.digon()
        if digon is not None:
            sites.append((_lift_digon, digon_contract(state, digon)))
            continue
        tri = state.triangle()
        if tri is None:
            break
        sites.append((_lift_triangle, triangle_contract(state, tri)))
    if whole and not sites:
        return _base_conformal_triple(g, coloring) if g.n <= 4 else conformal_triple(g, coloring, seed=seed)
    core_g, core_col, vids, eids = state.core() if sites else (g, coloring, None, None)
    del state  # the sites hold all the lifts need; free the graph copy before the core solve
    if core_g.n <= 4:
        marks = [p.marked for p in _base_conformal_triple(core_g, core_col).partitions]
    else:
        marks = _descent(core_g, core_col, seed=seed)
    if sites:  # each lift rewrites a few marks in g's ids
        core, marks = marks, [[-1] * g.n for _ in range(3)]
        _carry_marks(marks, core, vids, eids)
        for lift, site in reversed(sites):
            lift(site, marks)
    if whole:
        return _checked(g, coloring, marks)
    return ConformalTriple(g, coloring, tuple(NormalPartition(g, m) for m in marks))
