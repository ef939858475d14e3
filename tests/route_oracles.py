"""Oracles for the conformal route's set-up, kept as the route had them
before it took shortcuts:

  * two_factor_cycles: the cycles of a 2-factor as lists of darts;
  * incoming_marks_by_cycles: the matching route's marking read off the
    list of 2-factor cycles, through one outgoing dart per vertex, where
    construct._incoming_marks walks each cycle once and writes the marks;
  * FilingEveryVertex: a Contraction that files every vertex, where
    Contraction files only the vertices on a digon or a triangle;
  * contracted_sites: the surgeries the route makes on a Contraction;
  * descent_by_candidates: the conformal descent that walks a
    conformal_switch for every candidate, where construct._descent reads
    the guided step's switches off the marks at v and walks only the ones
    that would take v out of A.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterator, Optional, Sequence

from copnc.construct import (
    Contraction,
    SearchExhausted,
    _ball,
    _conformal_seed,
    digon_contract,
    triangle_contract,
)
from copnc.graph import BLUE, RED, YELLOW, CubicGraph, color_classes
from copnc.switching import conformal_switch


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


def outgoing_darts(g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]]) -> list[int]:
    """Per-vertex outgoing 2-factor dart under the chosen orientation.

    orientation gives one bit per cycle (in two_factor_cycles order);
    bit 1 walks the cycle the other way.  Default: all canonical.
    """
    cycles = two_factor_cycles(g, m)
    if orientation is None:
        orientation = (0,) * len(cycles)
    if len(orientation) != len(cycles):
        raise ValueError(f"orientation has {len(orientation)} bits for {len(cycles)} cycles")
    out = [-1] * g.n
    for bits, cycle in zip(orientation, cycles):
        if len(cycle) == 1:  # a loop: both directions agree
            d = cycle[0]
            out[g.dart_vertices[d]] = d
            continue
        darts = [d ^ 1 for d in reversed(cycle)] if bits else cycle
        for d in darts:
            out[g.dart_vertices[d]] = d
    return out


def incoming_marks_by_cycles(
    g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]] = None
) -> list[int]:
    """Every vertex marks its incoming 2-factor dart: the mate of the
    outgoing dart of the vertex before it."""
    marking = [0] * g.n
    for d in outgoing_darts(g, m, orientation):
        marking[g.dart_vertices[d ^ 1]] = d ^ 1
    return marking


class FilingEveryVertex(Contraction):
    """A Contraction that files every vertex of g, site or not."""

    def __init__(self, g: CubicGraph, coloring: Sequence[int]):
        self.ends = [list(p) for p in g.endpoints]
        self.color = list(coloring)
        self.darts = [list(ds) for ds in g.vertex_darts]
        self.n = g.n
        self.digons = []
        self.triangles = []
        for v in range(g.n):
            self.file(v)


def contracted_sites(state: Contraction) -> list[tuple[str, tuple[int, ...]]]:
    """Contract state as the route does, lowest digon first, else lowest
    triangle, down to 4 live vertices or a graph with neither; returns the
    sites in order, each as ("digon", pair) or ("triangle", vertices)."""
    sites = []
    while state.n > 4:
        digon = state.digon()
        if digon is not None:
            sites.append(("digon", digon))
            digon_contract(state, digon)
            continue
        tri = state.triangle()
        if tri is None:
            break
        sites.append(("triangle", tri))
        triangle_contract(state, tri)
    return sites


def descent_by_candidates(
    g: CubicGraph, coloring: tuple[int, ...], seed: int = 0, budget: int = 10**6
) -> list[list[int]]:
    """construct._descent as it was before its guided step went inline:
    every candidate, the three at v = min(A) included, comes from one
    generator and is tried by a conformal_switch walk through the move
    closure.  Nothing is decoded or validated here.

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

    def candidates(v: int) -> Iterator[tuple[int, int]]:
        for c in (RED, BLUE, YELLOW):
            yield c, v
        at_v = [mk[v] >> 1 for mk in marks]
        w = g.other_end(at_v[0] if at_v.count(at_v[0]) > 1 else at_v[1], v)
        near = [u for u in _ball(g, [v, w], 2) if agree[u]]
        for c in (RED, BLUE, YELLOW):
            for u in near:
                yield c, u

    low = 0  # no vertex below low is in A
    while size:
        while not agree[low]:
            low += 1
        for c, u in candidates(low):
            d = move(c, u)
            if d is None:
                continue
            old, marks[c][u] = marks[c][u], d
            if not agrees(u):
                agree[u] = False
                size -= 1
                break
            marks[c][u] = old
        else:
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
                fresh = _conformal_seed(g, classes, chain.from_iterable(orientations))
                # |A| of the fresh seed, read off its mark lists
                if sum(len({mk[v] >> 1 for mk in fresh}) < 3 for v in range(g.n)) <= start_size:
                    start = fresh
                for mk, new in zip(marks, start):
                    mk[:] = new  # in place: agrees reads m0, m1 and m2
                agree = [agrees(v) for v in range(g.n)]
                size = sum(agree)
            continue
    return marks
