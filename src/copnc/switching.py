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
switching additionally preserves the associated perfect matching.  Every
move runs on the marking alone, with the trail walker `partition.walk`
that also decodes markings: only T_i and T_j change, and the new trails
are pieces of them joined at v, so walking T_j and T_i from v is enough,
at a cost of O(|T_i| + |T_j|) whatever the size of the graph.  `switch`
walks v's two passage darts to find the ends of T_i; odd and conformal
moves check the new trails' lengths and matching edges.
`conformal_switch` reads a bare marking and returns v's new mark, so the
conformal descent moves three mark lists in place, one write a switch;
the other moves return partitions whose trails are decoded only on first
use.

Partitions are told apart by their fold key: the marking with each loop
dart folded to its edge's lower dart (marking either dart of a loop gives
the same partition).  A single class is walked breadth first from a seed
and deduplicated on fold keys, so the walk decodes nothing but the trails
of its seed, and those for odd and conformal moves only.  A whole family
is quotiented without moving at all: in the family of all partitions of a
kind (normal, odd, or conformal to m) the moves from p are exactly the
members whose fold keys differ from p's at one vertex, so the classes are
the connected components of one-vertex mark changes, joined from fold
keys bucketed once per vertex with that vertex left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graph import CubicGraph, is_perfect_matching
from .partition import NormalPartition, associated_matching, is_odd, walk


class BadBranch(ValueError):
    """The branch vertex is not a usable end of the trail through v."""


class NotConformalInput(ValueError):
    """Conformal moves need a seed partition conformal to the matching."""


class CapExceeded(RuntimeError):
    """Breadth-first exploration outgrew the caller-supplied node cap."""


def switch(p: NormalPartition, v: int, branch: int) -> NormalPartition:
    """Switch p on v; branch names the end of the internal trail kept on
    the re-attached side (the end playing the detached role must differ
    from v, so branch = v is rejected).

    The trail through v's passage ends where the walks from its two
    passage darts end; v's new mark is the passage dart whose walk does
    not end at branch.  The marked edge changes at v and only at v.
    """
    g = p.graph
    d1, d2 = p.passage(v)
    end1, end2 = (g.dart_vertex(walk(g, p.marked, d)[-1] ^ 1) for d in (d1, d2))
    if branch == v or branch not in (end1, end2):
        raise BadBranch(f"vertex {branch} is not a usable end of the trail through {v}")
    return _remarked(p, v, d2 if end1 == branch else d1)


def _local_moves(g: CubicGraph, marked: Sequence[int], v: int) -> tuple[list[int], dict[int, list[list[int]]]]:
    """The switches at v, on the marking alone.

    Only the trail T_j ending at v and the trail T_i through v's passage
    change, and the new trails are pieces of the old ones joined at v, so
    walking T_j from v and T_i from v both ways is enough.  Returns the
    lengths of the old trails (T_j, then T_i unless it is T_j) and, in
    ascending order of v's new mark, every new mark that closes no cycle
    with its new trails, each a list of darts whose edges are the trail's
    edges in order.
    """
    d1, d2 = [d for d in g.vertex_darts[v] if d != marked[v]]
    tj = walk(g, marked, marked[v])
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
        h1 = walk(g, marked, d1)
        h2 = walk(g, marked, d2)
        old = [len(tj), len(h1) + len(h2)]
        new = {d1: [h1, h2[::-1] + tj], d2: [h2, h1[::-1] + tj]}
    return old, new


def _remarked(p: NormalPartition, v: int, d: int) -> NormalPartition:
    marking = list(p.marked)
    marking[v] = d
    return NormalPartition(p.graph, marking)


def switch_candidates(p: NormalPartition, v: int) -> list[NormalPartition]:
    """All valid switch results at v (two when v's trails differ, else one).

    Equivalent to trying both passage slots as v's new mark and keeping
    the decodable markings; results come out ordered by the new marked
    dart.
    """
    return [_remarked(p, v, d) for d in _local_moves(p.graph, p.marked, v)[1]]


def _even_trails(p: NormalPartition) -> int:
    return sum(t.length % 2 == 0 for t in p.trails)


def _odd_moves(p: NormalPartition, v: int, evens: int) -> list[NormalPartition]:
    """odd_switches for a p known to have evens even trails: the result is
    odd exactly when the new trails are odd and the old ones held every
    even trail of p."""
    old, new = _local_moves(p.graph, p.marked, v)
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


def conformal_switch(g: CubicGraph, marked: Sequence[int], m: frozenset[int], v: int) -> Optional[int]:
    """The dart v marks after the switch at v that keeps the partition
    conformal to the perfect matching m, or None when there is no such
    switch (v internal and end of the same trail in the blocking pattern).

    The marking must be one of a partition conformal to m; it is read and
    never written, so applying the move is one write, marked[v] = the
    result, and undoing it another.  Of v's two passage darts, the one on
    m cannot qualify, since its new trail would end on an edge of m; the
    other qualifies when each of its new trails is conformal to m.  The
    cost is O(|T_i| + |T_j|), whatever the size of the graph.
    """
    for d, trails in _local_moves(g, marked, v)[1].items():
        if all(_conformal_trail(t, m) for t in trails):
            return d
    return None


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
            d = conformal_switch(g, p.marked, matching, v)
            if d is not None:
                yield _remarked(p, v, d)
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

    Raises CapExceeded when more than cap partitions get visited, and
    NotConformalInput when conformal moves start from a p not conformal to
    the matching (by default p's own).  The result is ordered by
    discovery, seed first.
    """
    if kind == "conformal":
        matching = frozenset(matching) if matching else associated_matching(p)
        # every move keeps p's matching, so the seed is the one to check
        if associated_matching(p) != matching:
            raise NotConformalInput("partition is not conformal to the matching")
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
    if kind == "conformal":
        matching = frozenset(matching) if matching else associated_matching(p)
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

    The family must hold all partitions of its kind: normal ones for plain
    moves, odd ones for odd moves, ones conformal to the perfect matching
    m (by default the first member's) for conformal moves, as
    enumerate_normal_partitions and enumerate_nops return them.  There a
    move is exactly a change of one vertex's mark, so the classes are the
    family's components under one-vertex mark changes, joined from the
    fold keys bucketed once per vertex with that vertex left out; no move
    is built.  Moves that leave an incomplete family go unseen: such a
    family gets its components.  A member not of the kind (even under odd
    moves, marking an edge of m under conformal ones) or a matching that
    is not perfect raises ValueError.  Members equal as partitions are
    kept once, the first.

    Classes come out in canonical order of their least (trail key)
    member, members in family order.  Raises CapExceeded when a class has
    more than cap members.
    """
    if not partitions:
        return []
    g = partitions[0].graph
    if kind == "conformal":
        m = frozenset(matching) if matching is not None else associated_matching(partitions[0])
        if not is_perfect_matching(g, m):
            raise ValueError("conformal moves need a perfect matching")
        if any((d >> 1) in m for p in partitions for d in p.marked):
            raise ValueError("a member marks an edge of the matching, so it is not conformal to it")
    elif kind == "odd":
        if not all(map(is_odd, partitions)):
            raise ValueError("a member has an even trail, so it is not odd")
    elif kind != "plain":
        raise ValueError(f"unknown move kind '{kind}'")
    # a fold key as one int: two bits per vertex hold the slot of its mark
    bits = [0] * (2 * g.m)
    for v, darts in enumerate(g.vertex_darts):
        for s, d in enumerate(darts):
            bits[d] = s << 2 * v
    for d in _loop_uppers(g):
        bits[d] = bits[d ^ 1]
    index: dict[int, NormalPartition] = {}
    for p in partitions:
        index.setdefault(sum(map(bits.__getitem__, p.marked)), p)
    members = list(index.values())
    codes = list(index)
    parent = list(range(len(codes)))
    for v in range(g.n):
        mask = ~(3 << 2 * v)
        first: dict[int, int] = {}
        for i, c in enumerate(codes):
            j = first.setdefault(c & mask, i)
            if j != i:
                # union by the lower root, with path halving
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i < j:
                    i, j = j, i
                parent[i] = j
    # parent[i] <= i throughout, so one ascending pass points all at roots
    for i in range(len(parent)):
        parent[i] = parent[parent[i]]
    groups: dict[int, list[NormalPartition]] = {}
    for r, p in zip(parent, members):
        groups.setdefault(r, []).append(p)
    classes = list(groups.values())
    if cap is not None and any(len(c) > cap for c in classes):
        raise CapExceeded(f"switch class exceeds cap {cap}")
    if len(classes) > 1:
        classes.sort(key=lambda c: min(p.key for p in c))
    return classes
