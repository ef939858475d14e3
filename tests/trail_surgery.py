"""Trail surgeries across one digon or triangle expansion: the oracle for
the mark lifts in copnc.construct.

These rebuild every trail of the three big partitions from the small
ones: the trails away from the surgery site are relabelled, and the one
or two trails through the site are rewritten edge by edge, each trail a
(vertices, edges) pair of id lists.  The result is validated trail by trail,
so comparing its markings with the library's mark lift checks each
rewritten mark against an independent construction.
"""

from typing import Sequence

from copnc.graph import BLUE, RED, YELLOW
from copnc.partition import NormalPartition, validate_normal

from conftest import passage


def _lift_trail(t: tuple, vmap: Sequence[int], emap: Sequence[int]) -> tuple:
    vs, es = t
    return [vmap[v] for v in vs], [emap[e] for e in es]


def _trail_of_edge(p: NormalPartition, e: int) -> tuple:
    return next(t for t in p.trails if e in t[1])


def _oriented_from(t: tuple, start: int) -> tuple:
    vs, es = t
    if vs[0] == start:
        return t
    assert vs[-1] == start
    return vs[::-1], es[::-1]


def _oriented_pred(t: tuple, e: int, x: int) -> tuple:
    vs, es = t
    i = es.index(e)
    if vs[i] == x:
        return t
    assert vs[i + 1] == x
    return vs[::-1], es[::-1]


def lift_digon(info, parts: Sequence[NormalPartition]) -> list[NormalPartition]:
    """Rebuild the three big partitions from small ones across one digon.

    The contracted edge was colored rho and is internal in the rho
    partition; the role frame (x marks it in the beta partition) is read
    off the small triple, then the three per-role rewrites apply.
    """
    gs, gb = info.small, info.big
    exy = info.exy
    rho = info.rho
    v_s2b, e_s2b = info.v_s2b, info.e_s2b
    ends_s = gs.endpoints[exy]
    cands = sorted(
        (v, c)
        for v in set(ends_s)
        for c in (RED, BLUE, YELLOW)
        if c != rho and parts[c].marked_edge(v) == exy
    )
    x_s, beta = cands[0]
    gamma = next(c for c in (RED, BLUE, YELLOW) if c not in (rho, beta))
    y_s = ends_s[1] if ends_s[0] == x_s else ends_s[0]
    (o1, d1, c1), (o2, d2, c2) = info.sides
    if v_s2b[x_s] == o1:
        x_b, u_b, e1 = o1, d1, c1
        y_b, v_b, e2 = o2, d2, c2
    else:
        x_b, u_b, e1 = o2, d2, c2
        y_b, v_b, e2 = o1, d1, c1
    (eA, colA), (eB, colB) = info.digon
    e3 = eA if colA == beta else eB
    e4 = eA if colA == gamma else eB

    out = []
    for c in (RED, BLUE, YELLOW):
        p = parts[c]
        trails = []
        for t in p.trails:
            if exy not in t[1]:
                trails.append(_lift_trail(t, v_s2b, e_s2b))
        lift_v = lambda vs: [v_s2b[v] for v in vs]
        lift_e = lambda es: [e_s2b[e] for e in es]
        if c == rho:
            vs, es = _oriented_pred(_trail_of_edge(p, exy), exy, x_s)
            i = es.index(exy)
            trails.append((lift_v(vs[: i + 1]) + [u_b, v_b], lift_e(es[:i]) + [e1, e3]))
            trails.append((lift_v(vs[i + 1 :][::-1]) + [v_b, u_b], lift_e(es[i + 1 :][::-1]) + [e2, e4]))
        elif c == beta:
            vs, es = _oriented_from(_trail_of_edge(p, exy), x_s)
            assert es[0] == exy
            trails.append(((x_b, u_b), (e1,)))
            trails.append(([v_b, u_b, v_b] + lift_v(vs[1:]), [e4, e3, e2] + lift_e(es[1:])))
        else:
            t = _trail_of_edge(p, exy)
            if p.marked_edge(y_s) == exy:
                vs, es = _oriented_from(t, y_s)
                assert es[0] == exy
                trails.append(([u_b, v_b, u_b] + lift_v(vs[1:]), [e3, e4, e1] + lift_e(es[1:])))
                trails.append(((y_b, v_b), (e2,)))
            else:
                vs, es = _oriented_pred(t, exy, x_s)
                i = es.index(exy)
                trails.append((lift_v(vs[: i + 1]) + [u_b, v_b, u_b], lift_e(es[:i]) + [e1, e4, e3]))
                trails.append(([v_b] + lift_v(vs[i + 1 :]), [e2] + lift_e(es[i + 1 :])))
        out.append(validate_normal(gb, trails))
    return out


def lift_triangle(info, parts: Sequence[NormalPartition]) -> list[NormalPartition]:
    """Rebuild the three big partitions across one vertex-to-triangle
    expansion: the internal passage at the old vertex is routed through
    two triangle edges and the remaining triangle edge joins as a
    length-1 trail."""
    vs = info.v_small
    v_s2b, e_s2b = info.v_s2b, info.e_s2b
    inherit = info.inherit
    col = info.small_coloring
    gb = info.big
    tri_edge = {frozenset(gb.endpoints[e]): e for e in info.tri_edges}

    out = []
    for c in (RED, BLUE, YELLOW):
        p = parts[c]
        trails = []
        pa, pb = (d >> 1 for d in passage(p, vs))
        P = inherit[col[pa]]
        Q = inherit[col[pb]]
        for t in p.trails:
            t_vs, t_es = t
            if vs not in t_vs:
                trails.append(_lift_trail(t, v_s2b, e_s2b))
                continue
            verts: list[int] = []
            edges = [e_s2b[e] for e in t_es]
            new_edges: list[int] = []
            for j, w in enumerate(t_vs):
                if w != vs:
                    verts.append(v_s2b[w])
                    if j < len(t_es):
                        new_edges.append(edges[j])
                    continue
                if 0 < j < len(t_vs) - 1:
                    # internal: route the passage through the triangle
                    a = inherit[col[t_es[j - 1]]]
                    b = inherit[col[t_es[j]]]
                    r = next(x for x in inherit if x not in (a, b))
                    verts.extend([a, r, b])
                    new_edges.append(tri_edge[frozenset((a, r))])
                    new_edges.append(tri_edge[frozenset((r, b))])
                    if j < len(t_es):
                        new_edges.append(edges[j])
                else:
                    # trail end at the old vertex: land on the inheritor
                    e_end = t_es[0] if j == 0 else t_es[-1]
                    verts.append(inherit[col[e_end]])
                    if j < len(t_es):
                        new_edges.append(edges[j])
            trails.append((verts, new_edges))
        trails.append(((min(P, Q), max(P, Q)), (tri_edge[frozenset((P, Q))],)))
        out.append(validate_normal(gb, trails))
    return out
