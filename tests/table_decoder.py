"""The table decoder: the oracle for copnc.partition.trails_from_marking.

This is the decoder the library ran before it walked trails with
partition.walk.  It pairs each vertex's two unmarked darts in a successor
table, walks every trail through that table, checks each trail with
checked_trail, a frozen copy of the library's former Trail constructor,
and reads the marking and the passages back
off the sorted trails: each dart from a trail's vertices and edges and the
graph's endpoints.  At a loop end that marking holds the loop's lower
dart on a first edge and its upper dart on a last edge, whichever dart
was given; a loop step leaves by its lower dart and enters by its upper.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from copnc.graph import CubicGraph
from copnc.partition import CycleError


class MalformedTrail(ValueError):
    """A trail description violates incidence or edge distinctness."""


def checked_trail(g: CubicGraph, vertices: Sequence[int], edges: Sequence[int]) -> tuple[tuple, tuple]:
    """(vertices, edges) as tuples, once they pass the five checks of the
    library's former Trail constructor, frozen here; MalformedTrail names
    the first that fails."""
    vertices = tuple(vertices)
    edges = tuple(edges)
    if len(edges) < 1 or len(vertices) != len(edges) + 1:
        raise MalformedTrail(f"{len(vertices)} vertices with {len(edges)} edges")
    if len(set(edges)) != len(edges):
        raise MalformedTrail("repeated edge id")
    for i, e in enumerate(edges):
        if not 0 <= e < g.m:
            raise MalformedTrail(f"edge id {e} out of range")
        a, b = g.endpoints[e]
        u, v = vertices[i], vertices[i + 1]
        if (u, v) != (a, b) and (v, u) != (a, b):
            if a == b:
                raise MalformedTrail(f"loop {e} does not sit at step {i}")
            raise MalformedTrail(f"edge {e}=({a},{b}) does not join {u},{v}")
    return vertices, edges


@dataclass(frozen=True)
class Decoded:
    trails: tuple[tuple[tuple, tuple], ...]   # (vertices, edges), canonical
    marked: tuple[int, ...]                   # read off the trail ends
    passage: tuple[tuple[int, int], ...]      # vertex -> its internal darts, sorted


def decode(g: CubicGraph, marking: Sequence[int]) -> Decoded:
    """Decode like copnc.partition.trails_from_marking; raises its
    ValueError and CycleError (witness: the cycle through the lowest dart
    no trail covers)."""
    marking = tuple(marking)
    if len(marking) != g.n:
        raise ValueError("marking must assign one dart per vertex")
    succ = [0] * (2 * g.m)
    for v in range(g.n):
        d = marking[v]
        slots = g.vertex_darts[v]
        if d not in slots:
            raise ValueError(f"marked dart {d} is not at vertex {v}")
        a, b = (x for x in slots if x != d)
        succ[a] = b
        succ[b] = a
    seen = [False] * (2 * g.m)
    trails = []
    for v in range(g.n):
        cur = marking[v]
        if seen[cur]:
            continue
        verts, edges = [v], []
        while True:
            seen[cur] = seen[cur ^ 1] = True
            w = g.dart_vertices[cur ^ 1]
            edges.append(cur >> 1)
            verts.append(w)
            if marking[w] == cur ^ 1:
                break
            cur = succ[cur ^ 1]
        vs, es = checked_trail(g, verts, edges)
        trails.append(min((vs, es), (vs[::-1], es[::-1])))
    if not all(seen):
        d0 = seen.index(False)
        cycle, cur = [], d0
        while True:
            cycle.append(cur >> 1)
            cur = succ[cur ^ 1]
            if cur == d0:
                break
        raise CycleError(cycle)
    trails.sort()
    marked = [-1] * g.n
    passage: list[Optional[tuple[int, int]]] = [None] * g.n
    for vs, es in trails:
        marked[vs[0]] = _dart_at(g, es[0], vs[0], 0)
        marked[vs[-1]] = _dart_at(g, es[-1], vs[-1], 1)
        for i in range(1, len(vs) - 1):
            into, outof = _dart_at(g, es[i - 1], vs[i], 1), _dart_at(g, es[i], vs[i], 0)
            passage[vs[i]] = (min(into, outof), max(into, outof))
    return Decoded(tuple(trails), tuple(marked), tuple(passage))


def _dart_at(g: CubicGraph, e: int, v: int, loop_dart: int) -> int:
    """Edge e's dart at its end v, from the graph's endpoints; at a loop
    the lower dart (loop_dart 0) or the upper one (loop_dart 1)."""
    a, b = g.endpoints[e]
    if a == b:
        return 2 * e + loop_dart
    return 2 * e if a == v else 2 * e + 1

