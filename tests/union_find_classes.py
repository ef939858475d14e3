"""The per-vertex union-find: the oracle for
copnc.switching.partition_classes.

This is the component step the library ran before it grew each class by
a flood fill over one byte per marking index.  Each member's marking is
folded into one int, two bits per vertex holding the slot of its mark,
with a loop's upper dart counted as its lower one.  For every vertex the
codes are bucketed with that vertex's two bits cleared, and each member
is joined to the first member of its bucket, by the lower root, with path
halving.  The checks, their messages, the cap and the class order are the
library's, so the two must agree on every family.
"""

from typing import Optional, Sequence

from copnc.graph import is_perfect_matching
from copnc.partition import NormalPartition, associated_matching, is_odd
from copnc.switching import CapExceeded


def union_find_classes(
    partitions: Sequence[NormalPartition],
    kind: str,
    matching: Optional[frozenset[int]] = None,
    cap: Optional[int] = None,
) -> list[list[NormalPartition]]:
    if kind not in ("plain", "odd", "conformal"):
        raise ValueError(f"unknown move kind '{kind}'")
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
