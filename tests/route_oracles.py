"""Oracles for the conformal route's set-up, kept as the route had them
before it took shortcuts:

  * incoming_marks_by_cycles: the matching route's marking read off the
    list of 2-factor cycles, through one outgoing dart per vertex, where
    construct._incoming_marks walks each cycle once and writes the marks;
  * FilingEveryVertex: a Contraction that files every vertex, where
    Contraction files only the vertices on a digon or a triangle;
  * contracted_sites: the surgeries the route makes on a Contraction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from copnc.construct import Contraction, digon_contract, triangle_contract, two_factor_cycles
from copnc.graph import CubicGraph


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
            out[g.dart_vertex(d)] = d
            continue
        darts = [d ^ 1 for d in reversed(cycle)] if bits else cycle
        for d in darts:
            out[g.dart_vertex(d)] = d
    return out


def incoming_marks_by_cycles(
    g: CubicGraph, m: frozenset[int], orientation: Optional[Sequence[int]] = None
) -> list[int]:
    """Every vertex marks its incoming 2-factor dart: the mate of the
    outgoing dart of the vertex before it."""
    marking = [0] * g.n
    for d in outgoing_darts(g, m, orientation):
        marking[g.dart_vertex(d ^ 1)] = d ^ 1
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
