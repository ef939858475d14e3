"""The switching move on normal partitions, and reachability under it.

A switch at vertex v re-ends trails locally: v is internal in a trail T_i
and an end vertex of a trail T_j; the move detaches the end at v and
re-attaches it across the internal passage.  In marking terms the move is
exactly "move v's marked slot to one of its two passage slots and decode
again": when T_i and T_j are distinct both passage slots decode to valid
partitions (two branches, one per end of T_i); when T_i = T_j exactly one
does, the other would close the detached part into a cycle.  Every switch
changes the marked edge at v and nothing anywhere else.

Odd switching restricts to moves between odd partitions; conformal
switching additionally preserves the associated perfect matching.  Plain
and odd switches decode the whole new marking.  A conformal switch works
on the marking alone: it walks T_i and T_j before and after re-marking v
and checks them against the matching, at a cost of O(|T_i| + |T_j|)
whatever the size of the graph, and returns a partition whose trails are
decoded only on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import CubicGraph
from .partition import (
    CycleError,
    NormalPartition,
    associated_matching,
    is_odd,
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


def switch_candidates(p: NormalPartition, v: int) -> list[NormalPartition]:
    """All valid switch results at v (two when v's trails differ, else one).

    Equivalent to trying both branch choices and keeping the decodable
    ones; results come out ordered by the new marked dart.
    """
    g = p.graph
    out = []
    for d in p.passage[v]:
        marking = list(p.marked)
        marking[v] = d
        try:
            out.append(trails_from_marking(g, marking))
        except CycleError:
            continue
    return out


def odd_switches(p: NormalPartition, v: int) -> list[NormalPartition]:
    """Switch results at v that are again odd partitions."""
    return [q for q in switch_candidates(p, v) if is_odd(q)]


def _walk(g: CubicGraph, marked: Sequence[int], v: int, mark_v: int, start: int) -> tuple[list[int], int]:
    """Follow a trail from dart start under the marking, with v marked at
    mark_v instead of marked[v]; returns the darts left through, in order,
    and the dart where the trail ends.

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
        mk = mark_v if w == v else marked[w]
        if mk == nxt:
            return out, nxt
        a, b, c = slots[w]
        cur = a + b + c - nxt - mk  # the other unmarked slot at w


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
    The other move is checked locally on the marking: only the trail T_j
    ending at v and the trail T_i through v's passage change, so both are
    walked before and after re-marking v, in O(|T_i| + |T_j|).  The new
    trails must cover as many edges as the old ones (fewer means a closed
    cycle) and each must be conformal to m.  The result carries m as its
    matching; its trails are decoded only when asked for.
    """
    m = frozenset(m)
    if associated_matching(p) != m:
        raise NotConformalInput("partition is not conformal to the matching")
    g = p.graph
    marked = p.marked
    d0 = marked[v]
    d1, d2 = (d for d in g.vertex_darts[v] if d != d0)
    new = d2 if (d1 >> 1) in m else d1
    # the old trails: T_j from its end at v, then T_i unless it is T_j
    tj, far = _walk(g, marked, v, d0, d0)
    ends = [far]
    size = len(tj)
    if d1 not in tj and d2 not in tj:
        h1, x1 = _walk(g, marked, v, d0, d1)
        h2, x2 = _walk(g, marked, v, d0, d2)
        ends += [x1, x2]
        size += len(h1) + len(h2)
    # the new trails, from v's new mark and from the remaining old ends
    first, end = _walk(g, marked, v, new, new)
    walked = [first]
    rest = [x for x in ends if x != end]
    if rest:
        walked.append(_walk(g, marked, v, new, rest[0])[0])
    if sum(map(len, walked)) < size:
        return None  # the re-attachment closes a cycle
    if not all(_conformal_trail(t, m) for t in walked):
        return None
    marking = list(marked)
    marking[v] = new
    return NormalPartition(g, marking, m)


def _moves(
    p: NormalPartition, kind: str, matching: Optional[frozenset[int]]
) -> Iterable[NormalPartition]:
    g = p.graph
    if kind == "plain":
        for v in range(g.n):
            yield from switch_candidates(p, v)
    elif kind == "odd":
        for v in range(g.n):
            yield from odd_switches(p, v)
    elif kind == "conformal":
        assert matching is not None
        for v in range(g.n):
            q = conformal_switch(p, matching, v)
            if q is not None:
                yield q
    else:
        raise ValueError(f"unknown move kind '{kind}'")


@dataclass(frozen=True)
class ClassSummary:
    size: int
    diameter: int
    diameter_exact: bool


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
    seen = {p.key: p}
    order = [p]
    frontier = [p]
    while frontier:
        nxt = []
        for q in frontier:
            for r in _moves(q, kind, matching):
                if r.key not in seen:
                    seen[r.key] = r
                    order.append(r)
                    nxt.append(r)
                    if cap is not None and len(seen) > cap:
                        raise CapExceeded(f"switch class exceeds cap {cap}")
        frontier = nxt
    return order


def _eccentricity(
    seed: NormalPartition,
    members: dict,
    kind: str,
    matching: Optional[frozenset[int]],
) -> int:
    depth = {seed.key: 0}
    frontier = [seed]
    ecc = 0
    while frontier:
        nxt = []
        for q in frontier:
            for r in _moves(q, kind, matching):
                if r.key in members and r.key not in depth:
                    depth[r.key] = depth[q.key] + 1
                    ecc = max(ecc, depth[r.key])
                    nxt.append(r)
        frontier = nxt
    return ecc


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
    keys = {q.key: q for q in members}
    if len(members) <= exact_diameter_limit:
        diam = max(_eccentricity(q, keys, kind, matching) for q in members)
        return ClassSummary(len(members), diam, True), members
    diam = _eccentricity(p, keys, kind, matching)
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
    are rejected.
    """
    pool = {p.key: p for p in partitions}
    classes: list[list[NormalPartition]] = []
    remaining = dict(sorted(pool.items()))
    while remaining:
        _, seed = next(iter(remaining.items()))
        members = reachable_class(seed, kind, matching, cap)
        for q in members:
            if q.key not in pool:
                raise ValueError("moves left the supplied family of partitions")
            remaining.pop(q.key, None)
        classes.append(members)
    return classes
