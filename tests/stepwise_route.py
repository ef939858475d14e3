"""The general conformal route one graph at a time: the oracle for the
in-place contraction in copnc.construct.

Each step looks for the lowest digon or triangle with find_digon and
find_triangle, two whole-graph scans, builds the whole smaller CubicGraph
with its vertices and edges compacted in order, and keeps the big and
small graphs with the maps between them.  Each lift relabels all n marks into the big graph and
rewrites the site.  It costs O(n) per surgery, which is why the library
no longer runs it, but every step is a plain graph, so the trail
surgeries in trail_surgery.py can be run against it.

route() also tracks the global id of every vertex and edge in every
step: vertices keep their input ids, and the edge a digon contraction
creates takes the next id after all edges made so far, as in the library.
It solves a base graph (at most 4 vertices) with base_triple, nested
loops over the three pools of conformal partitions: the oracle for the
library's one table-driven triple search.

digon_extend and triangle_extend run one surgery the other way: they
grow a graph by a digon or a triangle and lift a conformal triple across
it with the library's own mark lifts, so a test can check those lifts
on a step it chooses; digon_extend_info and triangle_extend_info
describe the same step as the stepwise route would.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from copnc.construct import (
    ConformalTriple,
    NotConformalTriple,
    _DigonSite,
    _lift_digon,
    _lift_triangle,
    _TriangleSite,
    conformal_triple,
)
from copnc.graph import BLUE, RED, YELLOW, CubicGraph, color_classes, proper_3_edge_coloring
from copnc.partition import NormalPartition, agreement
from copnc.search import enumerate_nops


def base_triple(g: CubicGraph, coloring: tuple[int, ...]) -> ConformalTriple:
    """The first compatible triple of the nested loops over the pools of
    partitions conformal to each color class, each pool in trail-key
    order: the triple least by trail keys."""
    classes = color_classes(coloring)
    pools = [sorted(enumerate_nops(g, conformal_to=classes[c]), key=lambda p: p.trails) for c in (RED, BLUE, YELLOW)]
    for p1 in pools[0]:
        for p2 in pools[1]:
            if agreement((p1, p2)):
                continue
            for p3 in pools[2]:
                if not agreement((p1, p3)) and not agreement((p2, p3)):
                    triple = ConformalTriple(g, coloring, (p1, p2, p3))
                    triple.validate()
                    return triple
    raise AssertionError("no conformal triple on a base graph")


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


@dataclass(frozen=True)
class DigonInfo:
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
class TriangleInfo:
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


def _dart_at(g: CubicGraph, e: int, v: int) -> int:
    return 2 * e if g.endpoints[e][0] == v else 2 * e + 1


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


def digon_contract(g: CubicGraph, coloring: Sequence[int], digon: tuple[int, int]):
    eA, eB = digon
    u, v = g.endpoints[eA]
    assert set(g.endpoints[eB]) == {u, v} and u != v
    du = next(d for d in g.vertex_darts[u] if d >> 1 not in (eA, eB))
    dv = next(d for d in g.vertex_darts[v] if d >> 1 not in (eA, eB))
    e1, e2 = du >> 1, dv >> 1
    x, y = g.dart_vertices[du ^ 1], g.dart_vertices[dv ^ 1]
    rho = coloring[e1]
    assert coloring[e2] == rho
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
    info = DigonInfo(
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


def triangle_contract(g: CubicGraph, coloring: Sequence[int], tri: tuple[int, int, int]):
    a, b, c = tri
    tri_set = {a, b, c}
    tri_edges = {
        next(d >> 1 for d in g.vertex_darts[p] if g.dart_vertices[d ^ 1] == q)
        for p, q in ((a, b), (b, c), (c, a))
    }
    outer = {}
    for w in tri:
        es = [e for e in set(g.edges_at(w)) if e not in tri_edges]
        assert len(es) == 1
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
    assert -1 not in inherit + by_color
    info = TriangleInfo(
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


def _relabel(info, marks: Sequence[int]) -> list[int]:
    e_s2b = info.e_s2b
    big = [-1] * info.big.n
    for w, d in zip(info.v_s2b, marks):
        big[w] = 2 * e_s2b[d >> 1] | (d & 1)
    return big


def lift_digon(info: DigonInfo, marks: Sequence[Sequence[int]]) -> list[list[int]]:
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
    side = {o: (d, e) for o, d, e in info.sides}
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
    return out


def lift_triangle(info: TriangleInfo, marks: Sequence[Sequence[int]]) -> list[list[int]]:
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
    return out


@dataclass(frozen=True)
class Step:
    kind: str                 # "digon" or "triangle"
    site: tuple[int, ...]     # the digon's edge pair or the triangle, global ids
    info: object              # DigonInfo or TriangleInfo
    big_ids: tuple[tuple[int, ...], tuple[int, ...]]    # big vertex, edge -> global id
    small_ids: tuple[tuple[int, ...], tuple[int, ...]]  # small vertex, edge -> global id


@dataclass(frozen=True)
class Route:
    steps: list[Step]
    core: CubicGraph
    core_coloring: tuple[int, ...]
    marks: list[list[int]]    # the three final markings of the input graph


def route(g: CubicGraph, seed: int = 0) -> Route:
    """The general route one graph at a time, with every step recorded."""
    coloring = proper_3_edge_coloring(g)
    assert coloring is not None
    cur_g, cur_col = g, tuple(coloring)
    vids, eids = tuple(range(g.n)), tuple(range(g.m))
    next_edge = g.m
    steps = []
    while cur_g.n > 4:
        digon = find_digon(cur_g)
        if digon is not None:
            small_g, small_col, info = digon_contract(cur_g, cur_col, digon)
            kind, site = "digon", tuple(eids[e] for e in digon)
        else:
            tri = find_triangle(cur_g)
            if tri is None:
                break
            small_g, small_col, info = triangle_contract(cur_g, cur_col, tri)
            kind, site = "triangle", tuple(vids[v] for v in tri)
        small_v = tuple(vids[b] for b in info.v_s2b)
        small_e = []
        for b in info.e_s2b:
            small_e.append(eids[b] if b >= 0 else next_edge)
            next_edge += b < 0
        steps.append(Step(kind, site, info, (vids, eids), (small_v, tuple(small_e))))
        cur_g, cur_col, vids, eids = small_g, small_col, small_v, tuple(small_e)
    if cur_g.n <= 4:
        core = base_triple(cur_g, cur_col)
    else:
        core = conformal_triple(cur_g, cur_col, seed=seed)
    marks = [list(p.marked) for p in core.partitions]
    for step in reversed(steps):
        lift = lift_digon if step.kind == "digon" else lift_triangle
        marks = lift(step.info, marks)
    return Route(steps, cur_g, cur_col, marks)


def to_global(ids: tuple[tuple[int, ...], tuple[int, ...]], marks: Sequence[int], n: int) -> list[int]:
    """A marking in one step's labels, as a list over the n global vertex
    ids in global dart ids; vertices outside the step hold -1."""
    vids, eids = ids
    out = [-1] * n
    for w, d in zip(vids, marks):
        out[w] = 2 * eids[d >> 1] | (d & 1)
    return out


def from_global(ids: tuple[tuple[int, ...], tuple[int, ...]], marks: Sequence[int]) -> list[int]:
    """The inverse of to_global on the vertices of the step."""
    vids, eids = ids
    local = {e: i for i, e in enumerate(eids)}
    return [2 * local[marks[w] >> 1] | (marks[w] & 1) for w in vids]


def _lifted_triple(lift, site, gb: CubicGraph, coloring: Sequence[int], triple: ConformalTriple) -> ConformalTriple:
    """The triple lifted across one extension by two vertices, validated in full."""
    marks = [list(p.marked) + [-1, -1] for p in triple.partitions]
    lift(site, marks)
    lifted = ConformalTriple(gb, tuple(coloring), tuple(NormalPartition(gb, m) for m in marks))
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
    if not 0 <= e < g.m or g.endpoints[e][0] == g.endpoints[e][1]:
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
    at_u = [-1, -1, -1]
    at_u[beta], at_u[gamma] = 2 * (g.m + 1), 2 * (g.m + 2)
    # exy is e itself: the small graph's e is the edge the digon subdivides
    site = _DigonSite((g.m + 1, g.m + 2), e, rho, ((x, u, 2 * e), (y, v, 2 * g.m + 1)), tuple(at_u))
    return gb, _lifted_triple(_lift_digon, site, gb, tuple(coloring) + (rho, beta, gamma), triple)


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
    if any(g.dart_vertices[d ^ 1] == v for d in g.vertex_darts[v]):
        raise ValueError("vertex with a loop cannot be expanded")
    inherit = (v, g.n + 1, g.n)  # the RED, BLUE and YELLOW inheritors
    edges = list(g.endpoints)
    outer = [-1, -1, -1]
    for d in g.vertex_darts[v]:
        e = d >> 1
        outer[coloring[e]] = e
        a, b = edges[e]
        target = inherit[coloring[e]]
        edges[e] = (target, b) if (d & 1) == 0 else (a, target)
    tri_marks = [None, None, None]
    big_coloring = list(coloring)
    for p, q, col in ((v, g.n, BLUE), (g.n, g.n + 1, RED), (g.n + 1, v, YELLOW)):
        tri_marks[col] = ((p, 2 * len(edges)), (q, 2 * len(edges) + 1))
        edges.append((p, q))
        big_coloring.append(col)
    gb = CubicGraph(g.n + 2, edges)
    site = _TriangleSite((v, g.n, g.n + 1), tuple(outer), inherit, tuple(tri_marks))
    return gb, _lifted_triple(_lift_triangle, site, gb, big_coloring, triple)


def digon_extend_info(g: CubicGraph, e: int, coloring: Sequence[int]) -> DigonInfo:
    """The step that contracts the digon digon_extend(g, e, ...) makes."""
    rho = coloring[e]
    beta, gamma = [c for c in (RED, BLUE, YELLOW) if c != rho]
    x, y = g.endpoints[e]
    u, v = g.n, g.n + 1
    edges = list(g.endpoints)
    edges[e] = (x, u)
    edges += [(v, y), (u, v), (u, v)]
    return DigonInfo(
        big=CubicGraph(g.n + 2, edges),
        big_coloring=tuple(coloring[:e]) + (rho,) + tuple(coloring[e + 1 :]) + (rho, beta, gamma),
        small=g,
        small_coloring=tuple(coloring),
        v_s2b=tuple(range(g.n)),
        e_s2b=tuple(list(range(e)) + [-1] + list(range(e + 1, g.m))),
        exy=e,
        sides=((x, u, e), (y, v, g.m)),
        digon=((g.m + 1, beta), (g.m + 2, gamma)),
        rho=rho,
    )


def triangle_extend_info(g: CubicGraph, v: int, coloring: Sequence[int]) -> TriangleInfo:
    """The step that contracts the triangle triangle_extend(g, v, ...) makes."""
    inherit_b = {RED: v, YELLOW: g.n, BLUE: g.n + 1}
    edges = list(g.endpoints)
    for d in g.vertex_darts[v]:
        a, b = edges[d >> 1]
        target = inherit_b[coloring[d >> 1]]
        edges[d >> 1] = (target, b) if (d & 1) == 0 else (a, target)
    edges += [(v, g.n), (g.n, g.n + 1), (g.n + 1, v)]
    return TriangleInfo(
        big=CubicGraph(g.n + 2, edges),
        big_coloring=tuple(coloring) + (BLUE, RED, YELLOW),
        small=g,
        small_coloring=tuple(coloring),
        v_s2b=tuple(range(g.n)),
        e_s2b=tuple(range(g.m)),
        v_small=v,
        inherit=(v, g.n + 1, g.n),
        tri_edges=(g.m + 1, g.m, g.m + 2),
    )
