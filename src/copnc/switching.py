"""The switching move on normal partitions, and reachability under it.

A switch at vertex v re-ends trails locally: v is internal in a trail T_i
and an end vertex of a trail T_j; the move detaches the end at v and
re-attaches it across the internal passage.  In marking terms the move is
exactly "move v's marked slot to one of its two passage slots": when T_i
and T_j are distinct both passage slots give valid partitions (two
branches, one per end of T_i); when T_i = T_j exactly one does, the other
would close the detached part into a cycle.  Every switch changes the
marked edge at v and nothing anywhere else.

Odd switching restricts to moves between odd partitions; conformal
switching additionally preserves the associated perfect matching.  All
three run one local move on the marking alone: only T_i and T_j change,
and the new trails are pieces of them joined at v, so walking T_j and
T_i from v is enough, at a cost of O(|T_i| + |T_j|) whatever the size of
the graph.  Odd and conformal moves then check the new trails' lengths
and matching edges.  Results are partitions whose trails are decoded
only on first use.

Reachability classes are walked breadth first and deduplicated on the
marking, with each loop dart folded to its edge's lower dart (marking
either dart of a loop gives the same partition), so a class walk decodes
nothing but the trails of its seed, and those for odd moves only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graph import CubicGraph
from .partition import (
    CycleError,
    NormalPartition,
    associated_matching,
    trails_from_marking,
)


class BadBranch(ValueError):
    """The branch vertex is not a usable end of the trail through v."""


class NotConformalInput(ValueError):
    """conformal_switch requires a partition conformal to the matching."""


class CapExceeded(RuntimeError):
    """Breadth-first exploration outgrew the caller-supplied node cap."""


def switch(p: NormalPartition, v: int, branch: int) -> NormalPartition:
    """Switch p on v; branch names the end of the internal trail kept on
    the re-attached side (the end playing the detached role must differ
    from v, so branch = v is rejected).

    The marked edge changes at v and only at v.
    """
    g = p.graph
    e = p.passage[v][0] >> 1
    ti = p.edge_pos[e][0]
    t = p.trails[ti]
    a, b = t.ends
    if branch == v or branch not in (a, b):
        raise BadBranch(f"vertex {branch} is not a usable end of {t}")
    i = next(
        k for k in range(1, len(t.vertices) - 1) if t.vertices[k] == v
    )
    # new marked slot: the passage dart on the far side from the branch end
    if branch == t.vertices[0]:
        new_dart = t.out_darts[i]
    else:
        new_dart = t.out_darts[i - 1] ^ 1
    marking = list(p.marked)
    marking[v] = new_dart
    try:
        return trails_from_marking(g, marking)
    except CycleError as exc:  # the forbidden re-attachment
        raise BadBranch(
            f"switch on {v} toward end {branch} closes a cycle"
        ) from exc


def _walk(g: CubicGraph, marked: Sequence[int], start: int) -> list[int]:
    """Follow a trail from dart start under the marking; returns the darts
    left through, in order, up to the trail's end.

    A walk from a marked dart covers its whole trail; one from a passage
    dart covers the part of its trail beyond that dart.
    """
    slots = g.vertex_darts
    at = g.dart_vertex
    out = []
    cur = start
    while True:
        out.append(cur)
        nxt = cur ^ 1
        w = at(nxt)
        mk = marked[w]
        if mk == nxt:
            return out
        a, b, c = slots[w]
        cur = a + b + c - nxt - mk  # the other unmarked slot at w


def _passage(p: NormalPartition, v: int) -> tuple[int, int]:
    """v's two unmarked darts, ascending, read off the marking."""
    d0 = p.marked[v]
    a, b = (d for d in p.graph.vertex_darts[v] if d != d0)
    return a, b


def _local_moves(p: NormalPartition, v: int) -> tuple[list[int], dict[int, list[list[int]]]]:
    """The switches at v, on the marking alone.

    Only the trail T_j ending at v and the trail T_i through v's passage
    change, and the new trails are pieces of the old ones joined at v, so
    walking T_j from v and T_i from v both ways is enough.  Returns the
    lengths of the old trails (T_j, then T_i unless it is T_j) and, in
    ascending order of v's new mark, every new mark that closes no cycle
    with its new trails, each a list of darts whose edges are the trail's
    edges in order.
    """
    g = p.graph
    marked = p.marked
    d1, d2 = _passage(p, v)
    tj = _walk(g, marked, marked[v])
    if d1 in tj or d2 in tj:
        # T_i = T_j leaves v again at position k: tj[:k] is a closed walk
        # from v back to v, entered at the dart tj[k - 1] ^ 1.  Marking the
        # dart it leaves by would close that walk into a cycle; marking the
        # entry dart reverses the closed walk and keeps one trail.
        k = tj.index(d1) if d1 in tj else tj.index(d2)
        old = [len(tj)]
        new = {tj[k - 1] ^ 1: [tj[k - 1 :: -1] + tj[k:]]}
    else:
        # the new mark starts one half of T_i as a trail; the other half
        # runs on through v into T_j
        h1 = _walk(g, marked, d1)
        h2 = _walk(g, marked, d2)
        old = [len(tj), len(h1) + len(h2)]
        new = {d1: [h1, h2[::-1] + tj], d2: [h2, h1[::-1] + tj]}
    return old, new


def _remarked(p: NormalPartition, v: int, d: int, matching: Optional[frozenset[int]] = None) -> NormalPartition:
    marking = list(p.marked)
    marking[v] = d
    return NormalPartition(p.graph, marking, matching)


def switch_candidates(p: NormalPartition, v: int) -> list[NormalPartition]:
    """All valid switch results at v (two when v's trails differ, else one).

    Equivalent to trying both passage slots as v's new mark and keeping
    the decodable markings; results come out ordered by the new marked
    dart.
    """
    return [_remarked(p, v, d) for d in _local_moves(p, v)[1]]


def _even_trails(p: NormalPartition) -> int:
    return sum(t.length % 2 == 0 for t in p.trails)


def _odd_moves(p: NormalPartition, v: int, evens: int) -> list[NormalPartition]:
    """odd_switches for a p known to have evens even trails: the result is
    odd exactly when the new trails are odd and the old ones held every
    even trail of p."""
    old, new = _local_moves(p, v)
    if sum(n % 2 == 0 for n in old) != evens:
        return []
    return [
        _remarked(p, v, d)
        for d, trails in new.items()
        if all(len(t) % 2 == 1 for t in trails)
    ]


def odd_switches(p: NormalPartition, v: int) -> list[NormalPartition]:
    """Switch results at v that are again odd partitions."""
    return _odd_moves(p, v, _even_trails(p))


def _conformal_trail(darts: Sequence[int], m: frozenset[int]) -> bool:
    """Odd length, and the edges at even 1-based positions are exactly
    the trail's edges in m."""
    if len(darts) % 2 == 0:
        return False
    return all(((d >> 1) in m) == (i % 2 == 1) for i, d in enumerate(darts))


def conformal_switch(
    p: NormalPartition, m: frozenset[int], v: int
) -> Optional[NormalPartition]:
    """The switch at v preserving conformality to m, or None when no such
    move exists (v internal and end of the same trail in the blocking
    pattern).

    At most one candidate can qualify: the move that re-marks v's matching
    slot makes a matching edge a trail end, which conformality forbids.
    The other move is the local move, and each of its new trails must be
    conformal to m.  The result carries m as its matching; its trails are
    decoded only when asked for.
    """
    m = frozenset(m)
    pm = associated_matching(p)
    # a switch result carries the caller's m itself, which skips the O(n) compare
    if pm is not m and pm != m:
        raise NotConformalInput("partition is not conformal to the matching")
    d1, d2 = _passage(p, v)
    mark = d2 if (d1 >> 1) in m else d1
    trails = _local_moves(p, v)[1].get(mark)
    if trails is None or not all(_conformal_trail(t, m) for t in trails):
        return None
    return _remarked(p, v, mark, m)


def _moves(
    p: NormalPartition, kind: str, matching: Optional[frozenset[int]], evens: int
) -> Iterator[NormalPartition]:
    """Every move of the kind from p; evens is p's number of even trails,
    read only by odd moves."""
    g = p.graph
    if kind == "plain":
        for v in range(g.n):
            yield from switch_candidates(p, v)
    elif kind == "odd":
        for v in range(g.n):
            yield from _odd_moves(p, v, evens)
    elif kind == "conformal":
        assert matching is not None
        for v in range(g.n):
            q = conformal_switch(p, matching, v)
            if q is not None:
                yield q
    else:
        raise ValueError(f"unknown move kind '{kind}'")


def _loop_uppers(g: CubicGraph) -> frozenset[int]:
    """The upper dart 2e + 1 of every loop e."""
    return frozenset(2 * e + 1 for e, (u, w) in enumerate(g.endpoints) if u == w)


def _fold_key(p: NormalPartition, loops: frozenset[int]) -> tuple[int, ...]:
    """p's marking with each loop dart folded to its edge's lower dart;
    loops is _loop_uppers(p.graph).

    Two partitions of one graph have equal fold keys exactly when they are
    equal, i.e. when their trail keys agree.
    """
    if not loops:
        return p.marked
    return tuple(d ^ 1 if d in loops else d for d in p.marked)


@dataclass(frozen=True)
class ClassSummary:
    size: int
    diameter: int
    diameter_exact: bool


def _layers(
    p: NormalPartition,
    kind: str,
    matching: Optional[frozenset[int]],
    cap: Optional[int] = None,
) -> Iterator[list[NormalPartition]]:
    """Breadth-first layers of p's class, seed layer first, deduplicated
    on fold keys.  Only the seed's trails are read, for odd moves: every
    later partition is a move result, which odd moves keep odd."""
    loops = _loop_uppers(p.graph)
    seen = {_fold_key(p, loops)}
    evens = _even_trails(p) if kind == "odd" else 0
    frontier = [p]
    while frontier:
        yield frontier
        nxt = []
        for q in frontier:
            for r in _moves(q, kind, matching, evens):
                k = _fold_key(r, loops)
                if k not in seen:
                    seen.add(k)
                    nxt.append(r)
                    if cap is not None and len(seen) > cap:
                        raise CapExceeded(f"switch class exceeds cap {cap}")
        frontier = nxt
        evens = 0


def reachable_class(
    p: NormalPartition,
    kind: str = "plain",
    matching: Optional[frozenset[int]] = None,
    cap: Optional[int] = None,
) -> list[NormalPartition]:
    """Breadth-first closure of p under the chosen move kind.

    Raises CapExceeded when more than cap partitions get visited.  The
    result is ordered by discovery, seed first.
    """
    if kind == "conformal":
        matching = frozenset(matching) if matching else associated_matching(p)
    return [q for layer in _layers(p, kind, matching, cap) for q in layer]


def _eccentricity(seed: NormalPartition, kind: str, matching: Optional[frozenset[int]]) -> int:
    return sum(1 for _ in _layers(seed, kind, matching)) - 1


def switch_class(
    p: NormalPartition,
    kind: str = "plain",
    matching: Optional[frozenset[int]] = None,
    cap: Optional[int] = None,
    exact_diameter_limit: int = 128,
) -> tuple[ClassSummary, list[NormalPartition]]:
    """Summary (size, diameter) of p's reachability class plus its members.

    The diameter is exact (all-pairs breadth first) for classes up to
    exact_diameter_limit members; beyond that the seed eccentricity is
    reported as a lower bound and flagged inexact.
    """
    if kind == "conformal" and matching is None:
        matching = associated_matching(p)
    members = reachable_class(p, kind, matching, cap)
    if len(members) <= exact_diameter_limit:
        diam = max(_eccentricity(q, kind, matching) for q in members)
        return ClassSummary(len(members), diam, True), members
    diam = _eccentricity(p, kind, matching)
    return ClassSummary(len(members), diam, False), members


def partition_classes(
    partitions: Sequence[NormalPartition],
    kind: str,
    matching: Optional[frozenset[int]] = None,
    cap: Optional[int] = None,
) -> list[list[NormalPartition]]:
    """Quotient a family of partitions into switch-reachability classes.

    The family must be closed under the chosen moves (all odd partitions
    for odd moves, all partitions conformal to m for conformal moves);
    reached partitions outside the family would signal a caller error and
    are rejected.  Seeds are taken in canonical (trail key) order.
    """
    if not partitions:
        return []
    loops = _loop_uppers(partitions[0].graph)
    pool = {_fold_key(p, loops): p for p in partitions}
    classes: list[list[NormalPartition]] = []
    remaining = dict.fromkeys(sorted(pool, key=lambda k: pool[k].key))
    while remaining:
        seed = pool[next(iter(remaining))]
        members = reachable_class(seed, kind, matching, cap)
        for q in members:
            k = _fold_key(q, loops)
            if k not in pool:
                raise ValueError("moves left the supplied family of partitions")
            remaining.pop(k, None)
        classes.append(members)
    return classes
