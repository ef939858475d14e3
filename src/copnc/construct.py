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
    triangles are first contracted away and afterwards re-expanded by
    surgeries that preserve normality, oddness, conformality and
    compatibility.  A surgery rewrites the marks at the four or three
    vertices of its site and carries every other mark over, so the
    triple is lifted as three markings and decoded into trails once.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import (
    BLUE,
    RED,
    YELLOW,
    CubicGraph,
    color_classes,
    is_bipartite,
    perfect_matchings,
    proper_3_edge_coloring,
)
from .partition import (
    NormalPartition,
    Trail,
    agreement,
    agrees_at,
    associated_matching,
    is_conformal,
    is_odd,
    length_profile,
    triple_set,
    validate_normal,
)
from .switching import conformal_switch

log = logging.getLogger(__name__)


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
            w = g.dart_vertex(nxt)
            a, b = cyc_darts[w]
            d = b if a == nxt else a
            if d == d0:
                break
        cycles.append(cycle)
    return cycles


def _outgoing_darts(
    g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]]
) -> list[int]:
    """Per-vertex outgoing 2-factor dart under the chosen orientation.

    orientation gives one bit per cycle (in two_factor_cycles order);
    bit 1 walks the cycle the other way.  Default: all canonical.
    """
    cycles = two_factor_cycles(g, m)
    if orientation is None:
        orientation = (0,) * len(cycles)
    if len(orientation) != len(cycles):
        raise ValueError(
            f"orientation has {len(orientation)} bits for {len(cycles)} cycles"
        )
    out = [-1] * g.n
    for bits, cycle in zip(orientation, cycles):
        if len(cycle) == 1:  # a loop: both directions agree
            d = cycle[0]
            out[g.dart_vertex(d)] = d
            continue
        darts = [d ^ 1 for d in reversed(cycle)] if bits else cycle
        for d in darts:
            out[g.dart_vertex(d)] = d
    return out


def orientation_map(
    g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """Vertex -> outgoing dart of the 2-factor g - m; every vertex has one
    outgoing and one incoming 2-factor edge per cycle direction."""
    return tuple(_outgoing_darts(g, m, orientation))


def nop_from_matching(
    g: CubicGraph,
    m: Optional[frozenset[int]] = None,
    orientation: Optional[Sequence[int]] = None,
) -> NormalPartition:
    """The all-length-3 partition built from a perfect matching.

    Each matching edge uv becomes the trail  x --in(u)-- u --uv-- v
    --out(v)-- y  where in/out follow the 2-factor orientation; the middle
    edge is the unique odd edge of its trail, so the partition is conformal
    to m.  With m omitted the first perfect matching is used (NoMatching
    when none exists).
    """
    if m is None:
        m = next(perfect_matchings(g), None)
        if m is None:
            raise NoMatching("graph has no perfect matching")
    m = frozenset(m)
    out = _outgoing_darts(g, m, orientation)
    trails = []
    for e in sorted(m):
        u, v = g.endpoints[e]
        du, dv = out[u], out[v]
        eu, ev = du >> 1, dv >> 1
        xu = g.dart_vertex(du ^ 1)
        yv = g.dart_vertex(dv ^ 1)
        trails.append(Trail(g, (xu, u, v, yv), (eu, e, ev)))
    p = validate_normal(g, trails)
    assert is_odd(p) and associated_matching(p) == m
    return p


# ---------------------------------------------------------------------------
# Conformal triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalTriple:
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
        if triple_set(*self.partitions):
            raise NotConformalTriple("partitions are not pairwise compatible")

    def agreement(self) -> frozenset[int]:
        return triple_set(*self.partitions)

    def profile(self) -> tuple[tuple[int, ...], ...]:
        return tuple(length_profile(p) for p in self.partitions)


def bipartite_triple(g: CubicGraph) -> ConformalTriple:
    """Three compatible all-length-3 partitions of a bipartite cubic graph,
    one conformal to each class of a proper 3-edge-coloring.

    For the partition conformal to color c, every c-colored edge uv with u
    on the black side and v on the white side is extended by the
    (c-1)-colored edge at u and the (c+1)-colored edge at v (colors mod 3).
    """
    bip, side = is_bipartite(g)
    if not bip:
        raise NotBipartite("graph is not bipartite")
    coloring = proper_3_edge_coloring(g)
    assert coloring is not None  # bipartite cubic graphs are 3-edge-colorable
    at = [{coloring[d >> 1]: d for d in g.vertex_darts[v]} for v in range(g.n)]
    parts = []
    for c in (RED, BLUE, YELLOW):
        trails = []
        for e, col in enumerate(coloring):
            if col != c:
                continue
            u, v = g.endpoints[e]
            if side[u] != 0:
                u, v = v, u
            du = at[u][(c - 1) % 3]
            dv = at[v][(c + 1) % 3]
            a = g.dart_vertex(du ^ 1)
            b = g.dart_vertex(dv ^ 1)
            trails.append(Trail(g, (a, u, v, b), (du >> 1, e, dv >> 1)))
        parts.append(validate_normal(g, trails))
    triple = ConformalTriple(g, coloring, tuple(parts))
    triple.validate()
    return triple


def _conformal_seed(
    g: CubicGraph,
    classes: tuple[frozenset[int], frozenset[int], frozenset[int]],
    orientations: tuple[Optional[Sequence[int]], ...] = (None, None, None),
) -> list[NormalPartition]:
    return [
        nop_from_matching(g, classes[c], orientations[c]) for c in (RED, BLUE, YELLOW)
    ]


def _ball(g: CubicGraph, centers: Sequence[int], radius: int = 2) -> list[int]:
    seen = set(centers)
    frontier = list(centers)
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for d in g.vertex_darts[v]:
                w = g.dart_vertex(d ^ 1)
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
    """Compatible triple conformal to a proper coloring of a simple
    triangle-free cubic graph, by agreement-set descent.

    Seeds one partition per color class via the matching route, then while
    the agreement set A is nonempty picks its lowest vertex and looks for a
    short sequence of conformal switches that shrinks |A|: first the single
    switch at v, then a breadth-first search over switch sequences located
    within distance two of the conflict (covering the two- and four-switch
    repair patterns, with equal-|A| relocations as intermediate states).
    If no bounded sequence helps, falls back to seeded random conformal
    walks with orientation re-seeding, keeping the best state seen.  The
    budget caps total switch applications; exceeding it raises
    SearchExhausted, which the theory says should not happen.

    A switch at v changes the marking at v only, so A and |A| are updated
    at the switched vertices instead of being recomputed, and the
    partitions are decoded into trails once, for the final validation.
    """
    if coloring is None:
        coloring = proper_3_edge_coloring(g)
        if coloring is None:
            raise NotThreeEdgeColorable("graph has chromatic index 4")
    coloring = tuple(coloring)
    classes = color_classes(coloring)
    parts = _conformal_seed(g, classes)
    spent = 0
    rng = random.Random(seed)

    def switched(cur: list[NormalPartition], size: int, c: int, v: int):
        """The state after the conformal switch of partition c at v and its
        |A|, or None.  Only v's marked edge changes, so only v can enter or
        leave A."""
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchExhausted(f"conformal search exceeded {budget} switches")
        q = conformal_switch(cur[c], classes[c], v)
        if q is None:
            return None
        new = list(cur)
        new[c] = q
        return new, size - agrees_at(cur, v) + agrees_at(new, v)

    def descend_once(cur: list[NormalPartition], agree: set[int]):
        """A state with a smaller agreement set, or None.  The state comes
        with the vertices where its marking may differ from cur's."""
        base = len(agree)
        v = min(agree)
        marks = [p.marked[v] >> 1 for p in cur]
        w = g.other_end(marks[0] if marks.count(marks[0]) > 1 else marks[1], v)
        sites = _ball(g, [v, w], 2)
        # single conformal switch at the conflict vertex
        for c in (RED, BLUE, YELLOW):
            step = switched(cur, base, c, v)
            if step and step[1] < base:
                return step[0], (v,)
        # bounded search over switch sequences near the conflict; the core
        # has no loops, so equal markings mean equal partitions
        seen = {tuple(p.marked for p in cur)}
        frontier = [cur]
        for _ in range(3):
            nxt = []
            for state in frontier:
                for c in (RED, BLUE, YELLOW):
                    for u in sites:
                        step = switched(state, base, c, u)
                        if step is None:
                            continue
                        new, size = step
                        key = tuple(p.marked for p in new)
                        if key in seen:
                            continue
                        seen.add(key)
                        if size < base:
                            return new, sites
                        if size == base and len(nxt) < 512:
                            nxt.append(new)
            frontier = nxt
            if not frontier:
                break
        return None

    def recheck(agree: set[int], cur: list[NormalPartition], vertices) -> None:
        for u in vertices:
            if agrees_at(cur, u):
                agree.add(u)
            else:
                agree.discard(u)

    # A is kept up to date from the switched vertices alone
    agree = set(agreement(parts))
    best, best_size = parts, len(agree)
    strategy = "seed"
    while True:
        if len(agree) < best_size:
            best, best_size = parts, len(agree)
        if not agree:
            log.debug("conformal triple reached A=0 via %s", strategy)
            triple = ConformalTriple(g, coloring, tuple(parts))
            triple.validate()
            return triple
        improved = descend_once(parts, agree)
        if improved is not None:
            parts, switched_at = improved
            recheck(agree, parts, switched_at)
            strategy = "guided"
            continue
        # random fallback: conformal walk, then orientation re-seed on stall
        strategy = "fallback"
        stall = 0
        while stall < 200:
            c = rng.randrange(3)
            v = rng.randrange(g.n)
            step = switched(parts, len(agree), c, v)
            if step is None:
                stall += 1
                continue
            parts = step[0]
            recheck(agree, parts, (v,))
            if len(agree) < best_size:
                break  # outer loop records the new best and resumes descent
            stall += 1
        else:
            cycles = [len(two_factor_cycles(g, classes[c])) for c in range(3)]
            orientations = tuple(
                tuple(rng.randrange(2) for _ in range(cycles[c])) for c in range(3)
            )
            reseeded = _conformal_seed(g, classes, orientations)
            # keep the best state seen: restart from it unless the fresh
            # seed is at least as good
            if len(agreement(reseeded)) > best_size:
                reseeded = best
            parts = reseeded
            agree = set(agreement(parts))


# ---------------------------------------------------------------------------
# Digon and triangle surgeries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DigonInfo:
    big: CubicGraph
    big_coloring: tuple[int, ...]
    small: CubicGraph
    small_coloring: tuple[int, ...]
    v_s2b: tuple[int, ...]
    e_s2b: tuple[int, ...]          # small edge -> big edge; exy maps to -1
    exy: int                        # small id of the contracted edge
    sides: tuple[tuple[int, int, int], tuple[int, int, int]]
    # each side: (outer vertex, digon vertex, connecting edge), big ids
    digon: tuple[tuple[int, int], tuple[int, int]]  # (big edge id, color)
    rho: int


@dataclass(frozen=True)
class _TriangleInfo:
    big: CubicGraph
    big_coloring: tuple[int, ...]
    small: CubicGraph
    small_coloring: tuple[int, ...]
    v_s2b: tuple[int, ...]
    e_s2b: tuple[int, ...]
    v_small: int                    # the contracted vertex, small id
    inherit: tuple[int, int, int]   # color -> big vertex carrying that color
    # color -> big triangle edge of that color, opposite that color's inheritor
    tri_edges: tuple[int, int, int]


def find_digon(g: CubicGraph) -> Optional[tuple[int, int]]:
    """Lowest pair of parallel non-loop edges, as (edge, edge), or None."""
    seen: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.endpoints):
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            return (seen[key], e)
        seen[key] = e
    return None


def find_triangle(g: CubicGraph) -> Optional[tuple[int, int, int]]:
    """Lowest vertex triple mutually joined by edges, or None."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.endpoints:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for a in range(g.n):
        for b in sorted(adj[a]):
            if b <= a:
                continue
            for c in sorted(adj[a] & adj[b]):
                if c > b:
                    return (a, b, c)
    return None


def _dart_at(g: CubicGraph, e: int, v: int) -> int:
    """The dart of the non-loop edge e at its endpoint v."""
    return 2 * e if g.endpoints[e][0] == v else 2 * e + 1


def _relabel(info, marks: Sequence[int]) -> list[int]:
    """A big marking with each small vertex's mark carried over to its big
    vertex and edge, which keep their orientation.  The vertices of the
    surgery site are left for the lift to write."""
    e_s2b = info.e_s2b
    big = [-1] * info.big.n
    for w, d in zip(info.v_s2b, marks):
        big[w] = 2 * e_s2b[d >> 1] | (d & 1)
    return big


def _lift_digon(
    info: _DigonInfo, marks: Sequence[Sequence[int]]
) -> tuple[list[list[int]], tuple[int, ...]]:
    """The three big markings from the small ones across one digon, and the
    big vertices whose marks the surgery rewrote.

    The contracted edge exy was colored rho.  The role frame is read off
    the small marking: x is the lowest end of exy that marks it in a
    partition other than rho's, beta is that partition, and u is the digon
    vertex next to x.  A mark on exy becomes the hanging edge at its end.
    At u the rho, beta and gamma partitions mark the gamma digon edge, the
    hanging edge and the beta digon edge; at v they mark the beta digon
    edge, the gamma digon edge and the hanging edge.  Every other mark
    carries over.
    """
    gb = info.big
    exy, rho = info.exy, info.rho
    ends = info.small.endpoints[exy]
    cands = sorted(
        (v, c)
        for v in set(ends)
        for c in (RED, BLUE, YELLOW)
        if c != rho and marks[c][v] >> 1 == exy
    )
    if not cands:
        raise NotConformalTriple("contracted edge is marked nowhere outside rho")
    x_s, beta = cands[0]
    gamma = next(c for c in (RED, BLUE, YELLOW) if c not in (rho, beta))
    y_s = ends[1] if ends[0] == x_s else ends[0]
    side = {o: (d, e) for o, d, e in info.sides}  # outer vertex -> (digon vertex, hanging edge)
    x, y = info.v_s2b[x_s], info.v_s2b[y_s]
    (u, e1), (v, e2) = side[x], side[y]
    (eA, colA), (eB, _) = info.digon
    e_beta, e_gamma = (eA, eB) if colA == beta else (eB, eA)
    at_u = {rho: e_gamma, beta: e1, gamma: e_beta}
    at_v = {rho: e_beta, beta: e_gamma, gamma: e2}
    out = []
    for c in (RED, BLUE, YELLOW):
        big = _relabel(info, marks[c])
        for w in ends:
            if marks[c][w] >> 1 == exy:
                wb = info.v_s2b[w]
                big[wb] = _dart_at(gb, side[wb][1], wb)
        big[u] = _dart_at(gb, at_u[c], u)
        big[v] = _dart_at(gb, at_v[c], v)
        out.append(big)
    return out, (x, y, u, v)


def _lift_triangle(
    info: _TriangleInfo, marks: Sequence[Sequence[int]]
) -> tuple[list[list[int]], tuple[int, ...]]:
    """The three big markings from the small ones across one
    vertex-to-triangle expansion, and the big vertices whose marks the
    surgery rewrote.

    In each partition the inheritor R of the old vertex's marked edge
    marks that edge, and the passage at the old vertex is routed through
    R.  The other two inheritors both mark the triangle edge between them,
    a trail of length 1; in a proper coloring it is the triangle edge of
    the marked edge's color.  Every other mark carries over.
    """
    gb = info.big
    vs, col, e_s2b = info.v_small, info.small_coloring, info.e_s2b
    out = []
    for c in (RED, BLUE, YELLOW):
        d = marks[c][vs]
        big = _relabel(info, marks[c])
        big[info.inherit[col[d >> 1]]] = 2 * e_s2b[d >> 1] | (d & 1)
        t = info.tri_edges[col[d >> 1]]
        p, q = gb.endpoints[t]
        big[p], big[q] = 2 * t, 2 * t + 1
        out.append(big)
    return out, info.inherit


def _compact_maps(n: int, dropped: Sequence[int]) -> tuple[list[int], list[int]]:
    """big->small and small->big vertex maps after dropping some vertices."""
    dropped_set = set(dropped)
    b2s = [-1] * n
    s2b = []
    for v in range(n):
        if v in dropped_set:
            continue
        b2s[v] = len(s2b)
        s2b.append(v)
    return b2s, s2b


def digon_contract(
    g: CubicGraph, coloring: Sequence[int], digon: tuple[int, int]
) -> tuple[CubicGraph, tuple[int, ...], _DigonInfo]:
    """Collapse a digon pair and its two hanging edges into one edge whose
    color is the shared color of the hanging edges."""
    eA, eB = digon
    u, v = g.endpoints[eA]
    assert set(g.endpoints[eB]) == {u, v} and u != v
    du = next(d for d in g.vertex_darts[u] if d >> 1 not in (eA, eB))
    dv = next(d for d in g.vertex_darts[v] if d >> 1 not in (eA, eB))
    e1, e2 = du >> 1, dv >> 1
    x, y = g.dart_vertex(du ^ 1), g.dart_vertex(dv ^ 1)
    rho = coloring[e1]
    assert coloring[e2] == rho, "hanging edges of a properly colored digon share a color"
    assert x not in (u, v) and y not in (u, v) and x != y
    vb2s, vs2b = _compact_maps(g.n, (u, v))
    eb2s = {}
    small_edges = []
    small_colors = []
    for e, (a, b) in enumerate(g.endpoints):
        if e in (eA, eB, e1, e2):
            continue
        eb2s[e] = len(small_edges)
        small_edges.append((vb2s[a], vb2s[b]))
        small_colors.append(coloring[e])
    exy = len(small_edges)
    small_edges.append((vb2s[x], vb2s[y]))
    small_colors.append(rho)
    gs = CubicGraph(g.n - 2, small_edges)
    e_s2b = [-1] * gs.m
    for be, se in eb2s.items():
        e_s2b[se] = be
    info = _DigonInfo(
        big=g,
        big_coloring=tuple(coloring),
        small=gs,
        small_coloring=tuple(small_colors),
        v_s2b=tuple(vs2b),
        e_s2b=tuple(e_s2b),
        exy=exy,
        sides=((x, u, e1), (y, v, e2)),
        digon=((eA, coloring[eA]), (eB, coloring[eB])),
        rho=rho,
    )
    return gs, tuple(small_colors), info


def triangle_contract(
    g: CubicGraph, coloring: Sequence[int], tri: tuple[int, int, int]
) -> tuple[CubicGraph, tuple[int, ...], _TriangleInfo]:
    """Collapse a triangle to a single vertex inheriting the three outside
    edges with their colors."""
    a, b, c = tri
    tri_set = {a, b, c}
    # the lowest-id edge of each pair: slots are listed in edge id order
    tri_edges = {
        next(d >> 1 for d in g.vertex_darts[p] if g.dart_vertex(d ^ 1) == q)
        for p, q in ((a, b), (b, c), (c, a))
    }
    outer = {}
    for w in tri:
        es = [e for e in set(g.edges_at(w)) if e not in tri_edges]
        assert len(es) == 1, "triangle vertices carry one outside edge each"
        outer[w] = es[0]
    vb2s, vs2b = _compact_maps(g.n, sorted(tri_set - {a}))
    v_small = vb2s[a]
    eb2s = {}
    small_edges = []
    small_colors = []
    for e, (p, q) in enumerate(g.endpoints):
        if e in tri_edges:
            continue
        ps = v_small if p in tri_set else vb2s[p]
        qs = v_small if q in tri_set else vb2s[q]
        eb2s[e] = len(small_edges)
        small_edges.append((ps, qs))
        small_colors.append(coloring[e])
    gs = CubicGraph(g.n - 2, small_edges)
    e_s2b = [-1] * gs.m
    for be, se in eb2s.items():
        e_s2b[se] = be
    inherit = [-1, -1, -1]
    by_color = [-1, -1, -1]
    for w in tri:
        inherit[coloring[outer[w]]] = w
    for e in tri_edges:
        by_color[coloring[e]] = e
    assert -1 not in inherit + by_color, "the colors at a triangle are all distinct"
    info = _TriangleInfo(
        big=g,
        big_coloring=tuple(coloring),
        small=gs,
        small_coloring=tuple(small_colors),
        v_s2b=tuple(vs2b),
        e_s2b=tuple(e_s2b),
        v_small=v_small,
        inherit=tuple(inherit),
        tri_edges=tuple(by_color),
    )
    return gs, tuple(small_colors), info


def _lifted_triple(lift, info, triple: ConformalTriple) -> ConformalTriple:
    """The triple lifted across one surgery, validated in full."""
    marks, _ = lift(info, [p.marked for p in triple.partitions])
    parts = tuple(NormalPartition(info.big, m) for m in marks)
    lifted = ConformalTriple(info.big, info.big_coloring, parts)
    lifted.validate()
    return lifted


def digon_extend(
    g: CubicGraph, e: int, triple: ConformalTriple
) -> tuple[CubicGraph, ConformalTriple]:
    """Subdivide edge e with two vertices joined by a doubled edge and
    extend the conformal triple across the new digon.

    New vertices are n (next to the lower frame endpoint) and n+1; edge e
    keeps its id for the first subdivision piece and ids m, m+1, m+2 are
    the other piece and the two digon edges.
    """
    triple.validate()
    if not 0 <= e < g.m or g.is_loop(e):
        raise ValueError(f"edge {e} cannot be subdivided into a digon")
    coloring = triple.coloring
    rho = coloring[e]
    beta, gamma = [c for c in (RED, BLUE, YELLOW) if c != rho]
    x, y = g.endpoints[e]
    u, v = g.n, g.n + 1
    edges = list(g.endpoints)
    edges[e] = (x, u)
    edges.append((v, y))   # id m
    edges.append((u, v))   # id m+1, beta colored
    edges.append((u, v))   # id m+2, gamma colored
    gb = CubicGraph(g.n + 2, edges)
    big_coloring = list(coloring)
    big_coloring[e] = rho
    big_coloring += [rho, beta, gamma]
    info = _DigonInfo(
        big=gb,
        big_coloring=tuple(big_coloring),
        small=g,
        small_coloring=tuple(coloring),
        v_s2b=tuple(range(g.n)),
        e_s2b=tuple(list(range(e)) + [-1] + list(range(e + 1, g.m))),
        exy=e,
        sides=((x, u, e), (y, v, g.m)),
        digon=((g.m + 1, beta), (g.m + 2, gamma)),
        rho=rho,
    )
    return gb, _lifted_triple(_lift_digon, info, triple)


def triangle_extend(
    g: CubicGraph, v: int, triple: ConformalTriple
) -> tuple[CubicGraph, ConformalTriple]:
    """Expand vertex v into a triangle and extend the conformal triple.

    The inheritor of v's RED edge keeps id v; the YELLOW and BLUE
    inheritors are n and n+1.  Appended edges m, m+1, m+2 join
    (RED,YELLOW), (YELLOW,BLUE), (BLUE,RED) inheritors and take the color
    opposite to the excluded inheritor.
    """
    triple.validate()
    coloring = triple.coloring
    darts = g.vertex_darts[v]
    if v in g.neighbors(v):
        raise ValueError("vertex with a loop cannot be expanded")
    inherit_b = {RED: v, YELLOW: g.n, BLUE: g.n + 1}
    edges = list(g.endpoints)
    for d in darts:
        e = d >> 1
        a, b = edges[e]
        target = inherit_b[coloring[e]]
        edges[e] = (target, b) if (d & 1) == 0 else (a, target)
    tri_pairs = [
        ((inherit_b[RED], inherit_b[YELLOW]), BLUE),
        ((inherit_b[YELLOW], inherit_b[BLUE]), RED),
        ((inherit_b[BLUE], inherit_b[RED]), YELLOW),
    ]
    big_coloring = list(coloring)
    for (p, q), col in tri_pairs:
        edges.append((p, q))
        big_coloring.append(col)
    gb = CubicGraph(g.n + 2, edges)
    info = _TriangleInfo(
        big=gb,
        big_coloring=tuple(big_coloring),
        small=g,
        small_coloring=tuple(coloring),
        v_s2b=tuple(range(g.n)),
        e_s2b=tuple(range(g.m)),
        v_small=v,
        inherit=(inherit_b[RED], inherit_b[BLUE], inherit_b[YELLOW]),
        tri_edges=(g.m + 1, g.m, g.m + 2),  # the RED, BLUE, YELLOW edges appended
    )
    return gb, _lifted_triple(_lift_triangle, info, triple)


# ---------------------------------------------------------------------------
# The general route
# ---------------------------------------------------------------------------


def _base_conformal_triple(g: CubicGraph, coloring: tuple[int, ...]) -> ConformalTriple:
    """Exhaustive conformal triple for graphs on at most 4 vertices."""
    from .search import enumerate_nops

    classes = color_classes(coloring)
    pools = [enumerate_nops(g, conformal_to=classes[c]) for c in (RED, BLUE, YELLOW)]
    for p1 in pools[0]:
        for p2 in pools[1]:
            if agreement((p1, p2)):
                continue
            for p3 in pools[2]:
                if not agreement((p1, p3)) and not agreement((p2, p3)):
                    triple = ConformalTriple(g, coloring, (p1, p2, p3))
                    triple.validate()
                    return triple
    raise SearchExhausted("no conformal triple on a base graph; should not happen")


def conformal_triple_general(g: CubicGraph, seed: int = 0) -> ConformalTriple:
    """Conformal compatible triple for any 3-edge-colorable cubic graph.

    Computes one proper coloring, contracts digons then triangles down to
    a simple triangle-free core (or a base graph on at most 4 vertices),
    solves the core, and replays the contractions backwards through the
    digon and triangle surgeries on the markings.  The lifted triple is
    decoded and validated once, on g.  Raises NotThreeEdgeColorable when no
    proper coloring exists; SearchExhausted only if the core improvement
    search overruns its budget.
    """
    coloring = proper_3_edge_coloring(g)
    if coloring is None:
        raise NotThreeEdgeColorable("graph has chromatic index 4")
    stack = []
    cur_g, cur_col = g, tuple(coloring)
    while True:
        if cur_g.n <= 4:
            core = _base_conformal_triple(cur_g, cur_col)
            break
        digon = find_digon(cur_g)
        if digon is not None:
            cur_g, cur_col, info = digon_contract(cur_g, cur_col, digon)
            stack.append((_lift_digon, info))
            continue
        tri = find_triangle(cur_g)
        if tri is not None:
            cur_g, cur_col, info = triangle_contract(cur_g, cur_col, tri)
            stack.append((_lift_triangle, info))
            continue
        core = conformal_triple(cur_g, cur_col, seed=seed)
        break
    if not stack:
        return core
    # the core triple is validated; each lift rewrites a few marks and
    # checks them, and the lifted triple is validated once, in full
    marks = [p.marked for p in core.partitions]
    for lift, info in reversed(stack):
        marks, site = lift(info, marks)
        # the three partitions mark three different edges at each rewritten vertex
        assert all(len({m[v] >> 1 for m in marks}) == 3 for v in site)
    triple = ConformalTriple(g, tuple(coloring), tuple(NormalPartition(g, m) for m in marks))
    triple.validate()
    return triple
