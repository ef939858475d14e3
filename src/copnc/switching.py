"""The conformal switching move, and switch classes of a partition family.

A switch at vertex v re-ends trails locally: v is internal in a trail T_i
and an end vertex of a trail T_j; the move detaches the end at v and
re-attaches it across the internal passage.  In marking terms the move is
exactly "give v one of its two passage darts as its new mark", kept when
the new marking decodes: when T_i and T_j are distinct both passage darts
do, when T_i = T_j exactly one does, the other would close the detached
part into a cycle.  Every switch changes the marked edge at v and nothing
anywhere else.  Odd switching keeps to odd partitions; conformal
switching also keeps the associated perfect matching.

`conformal_switch` is the move the conformal descent makes.  It runs on
the marking alone: a partition is conformal to m exactly when it marks no
edge of m (`partition.is_conformal`), so the one candidate is v's passage
dart off m, and one walk of T_j with the walker `partition.walk` that
also decodes markings tells whether marking it closes a cycle.  It reads
a bare mark list and returns v's new mark, so the descent moves three
mark lists in place, one write a switch.

`partition_classes` quotients a whole family without moving at all: in
the family of all partitions of a kind (normal, odd, or conformal to m)
the moves from p are exactly the members whose markings differ from p's
at one vertex, so the classes are the connected components of one-vertex
mark changes.  Marking either dart of a loop gives the same partition, so
markings are compared with each loop dart folded to its edge's lower dart.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import CubicGraph, is_perfect_matching
from .partition import NormalPartition, associated_matching, is_odd, walk


class CapExceeded(RuntimeError):
    """A switch class outgrew the caller-supplied cap."""


def conformal_switch(g: CubicGraph, marked: Sequence[int], m: frozenset[int], v: int) -> Optional[int]:
    """The dart v marks after the switch at v that keeps the partition
    conformal to the perfect matching m, or None when there is no such
    switch (v internal and end of the same trail in the blocking pattern,
    or v carrying a loop, whose other dart marks the same edge).

    The marking must be one of a partition conformal to m; it is read and
    never written, so applying the move is one write, marked[v] = the
    result, and undoing it another.  A conformal partition marks no edge
    of m (partition.is_conformal), so the new mark is v's passage dart d
    off m, and the new marking is conformal whenever it decodes.  It does
    not decode exactly when the trail T_j that ends at v, walked from v's
    mark, leaves v again by d: marking d closes that walk into a cycle.
    The cost is O(|T_j|), whatever the size of the graph.
    """
    d, o = [x for x in g.vertex_darts[v] if x != marked[v]]
    if (d >> 1) in m:
        d = o
    return None if d == marked[v] ^ 1 or d in walk(g, marked, marked[v]) else d


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
    enumerate_normal_partitions and enumerate_nops return them: in search
    order and undecoded.  The classes come from the markings alone, so
    plain moves, and conformal moves given m, decode no member unless
    there are several classes to order; odd moves decode each member once
    for its check.  There a move is exactly a change of one vertex's mark,
    so the classes are the family's components under one-vertex mark
    changes, joined from the folded markings bucketed once per vertex with
    that vertex left out; no move is built.  Moves that leave an
    incomplete family go unseen: such a family gets its components.  A member not of the kind (even under
    odd moves, marking an edge of m under conformal ones: see
    partition.is_conformal) or a matching that is not perfect raises
    ValueError.  Members equal as partitions are kept once, the first.

    Classes come out in canonical order of their least (by trails)
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
    # a folded marking as one int: two bits per vertex hold the slot of its
    # mark, and a loop's upper dart counts as its lower one
    bits = [0] * (2 * g.m)
    for v, darts in enumerate(g.vertex_darts):
        for s, d in enumerate(darts):
            bits[d] = s << 2 * v
    for e, (u, w) in enumerate(g.endpoints):
        if u == w:
            bits[2 * e + 1] = bits[2 * e]
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
        classes.sort(key=lambda c: min(p.trails for p in c))
    return classes
