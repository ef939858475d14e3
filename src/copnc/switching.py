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
mark changes.  A member is one mixed-radix index, vertex v's digit the
rank of its mark among the values v may take (a loop's two darts are one,
a dart on m none), and the family one byte per index, read as one int.
A class is flood-filled from its least index: at each vertex its members
go to digit 0, back to every value, and stay where the family has one.
The fill decodes nothing.  A call decodes each member at most once (for
the odd check, to order several classes, and the first member for the
default matching) and keeps no trails, so members come back undecoded.
"""

from __future__ import annotations

from functools import reduce
from itertools import cycle
from operator import itemgetter, or_
from typing import Optional, Sequence

from .graph import CubicGraph, is_perfect_matching
from .partition import NormalPartition, associated_matching, trails_from_marking, walk


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
    order and undecoded.  In such a family a move is exactly a change of
    one vertex's mark, so the classes are the family's components under
    one-vertex mark changes, flood-filled over one byte per marking index
    (at most 3^n); no move is built.  Moves that leave an incomplete
    family go unseen: such a family gets its components.  The classes come
    from the markings alone.  A call decodes each member at most once:
    under odd moves, for the check, which reads its trail lengths; with
    several classes, to order them by their least trails; and the first
    member, for the default m.  It keeps nothing, so members come back as
    undecoded as they came, and plain moves, and conformal moves given m,
    that leave one class decode nothing.  A member not of the kind (even
    under odd moves, marking an edge of m under conformal ones: see
    partition.is_conformal) or a matching that is not perfect raises
    ValueError.  Members equal as partitions are kept once, the first.

    Classes come out in canonical order of their least (by trails)
    member, members in family order.  Raises CapExceeded when a class has
    more than cap members, after every check has passed.
    """
    if kind not in ("plain", "odd", "conformal"):
        raise ValueError(f"unknown move kind '{kind}'")
    if not partitions:
        return []
    g = partitions[0].graph
    off: frozenset[int] = frozenset()  # edges whose darts take no value
    first = None  # partitions[0] decoded, when it gives the matching
    if kind == "conformal":
        if matching is None:
            first = trails_from_marking(g, partitions[0].marked)
        off = frozenset(matching) if first is None else associated_matching(first)
        if not is_perfect_matching(g, off):
            raise ValueError("conformal moves need a perfect matching")
    # a member's index is the sum of value[d] over its marks: d's rank among
    # its vertex's values times the vertex's place (W, past every index, for
    # a dart on m); steps holds (place, radix) of each vertex with a move
    value = [0] * (2 * g.m)
    steps, W = [], 1
    for darts in g.vertex_darts:
        on = [d for d in darts if d >> 1 not in off and not (d & 1 and d ^ 1 in darts)]
        for r, d in enumerate(on):
            value[d] = r * W
        if len(on) > 1:
            steps.append((W, len(on)))
        W *= len(on)
    for e, (u, w) in enumerate(g.endpoints):
        if u == w:
            value[2 * e + 1] = value[2 * e]
        elif e in off:
            value[2 * e] = value[2 * e + 1] = W
    index: dict[int, NormalPartition] = {}
    for p in partitions:
        index.setdefault(sum(map(value.__getitem__, p.marked)), p)
    if max(index) >= W:
        raise ValueError("a member marks an edge of the matching, so it is not conformal to it")
    family = bytearray(W)
    for i in index:
        family[i] = 1
    # index i is bit 8i of left, the members no class has claimed yet
    left = int.from_bytes(family, "little")
    comps = []
    while left:
        comp, stable = left & -left, 0
        for place, r in cycle(steps):
            if stable == len(steps) or comp == left:
                break
            # comp's members with this vertex's digit set to 0, spread back
            # over its every value and kept where left has a member
            shifts = range(0, 8 * place * r, 8 * place)
            digit0 = (b"\1" * place + bytes((r - 1) * place)) * (comp.bit_length() // shifts.stop + 1)
            proj = reduce(or_, [comp >> k for k in shifts]) & int.from_bytes(digit0, "little")
            grown = reduce(or_, [proj << k for k in shifts]) & left
            stable = stable + 1 if grown == comp else 1
            comp = grown
        comps.append(comp)
        left ^= comp
    if len(comps) == 1:
        classes = [list(index.values())]
    else:
        classes = [[p for i, p in index.items() if bits[i]] for bits in (c.to_bytes(W, "little") for c in comps)]
    if kind == "odd" or len(classes) > 1:

        def trails(p: NormalPartition) -> tuple[tuple, ...]:
            # one decode a member, kept by none: its lengths for the odd
            # check, its trails for the least of its class
            t = (first if first is not None and p is partitions[0] else trails_from_marking(g, p.marked)).trails
            if kind == "odd" and not all(len(es) & 1 for _, es in t):
                raise ValueError("a member has an even trail, so it is not odd")
            return t

        least = [min(map(trails, c)) for c in classes]
    if cap is not None and max(map(len, classes)) > cap:
        raise CapExceeded(f"switch class exceeds cap {cap}")
    if len(classes) > 1:
        classes = [c for _, c in sorted(zip(least, classes), key=itemgetter(0))]
    return classes
