"""One pruned search for normal partitions and compatible triples; sweeps.

Every search and enumeration here runs on one backtracking engine over
markings.  Each of k partitions marks one slot per vertex; the search
assigns vertices one at a time and keeps, per partition, the growing trail
fragments as chains of edges with open or sealed (marked) ends.  Pairing
two ends of the same chain would close a cycle and is pruned immediately.
One table of chain lengths refuses the rest: a chain that grows past the
length cap, and a completed chain (both ends sealed) of a refused length,
even for odd partitions and under a cap of 3 any length but 3.  A
normal partition of a cubic graph has one trail end per vertex, so n/2
trails, and all 3n/2 edges, so its trails average exactly 3 edges; with
none longer than 3, each has exactly 3.  A full assignment that survives
the prunes is exactly a marking that decodes, with all trails odd when
parity is asked for and within the cap.

k = 1 enumerates single normal (odd) partitions: each one is its
marking, returned in the order the search yields it and decoded only on
first use, so a caller that reads markings alone (switch classes) never
decodes; one that needs the canonical order sorts by their trails.
k = 3 searches for three pairwise compatible normal odd partitions:
compatibility at a cubic vertex forces the three marked edges there to
be three distinct edges, i.e. a bijection between partitions and the
vertex's slots, so a triple is one bijection per vertex (6^n worst case
instead of 27^n).  A vertex carrying a loop has
only two distinct incident edges and admits no bijection, so such graphs
have no triple and are rejected in O(1).

Every constraint is one table: v -> the perms v may take.  Pins are
one-perm rows (_pinned); partitions conformal to perfect matchings keep
the perms whose marks avoid them (_conformal_rows), two a vertex for the
three color classes of a proper coloring.

Exploration order: forced vertices (a row of at most one perm) first,
then the vertex with the most neighbors already entered (ties to the
lowest id), which closes chains early.  No choice changes it, so it is
computed once, before the search.  For triples with no table, the first
vertex keeps the identity bijection: the three partitions of a triple
are interchangeable, so every solution class is still found, once.

The search runs in two parts: a plan (the vertex order, computed once,
and each vertex's choice row, built when the kernel first enters the
vertex and kept for the rest of the search, so a search that stops early
pays only for the rows it reached) and a kernel that keeps only the chain
state of all k partitions, in flat arrays with no undo journal.  A choice
is tested by reads alone, in a test written out for each k (one part for
k = 1, three for k = 3), and undone from its own darts (see _Search).

A sweep runs check_graph on each graph of a corpus; each check returns
its JSONL record as a plain dict, ready to encode.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from itertools import permutations, product
from typing import Collection, Iterator, Optional, Sequence

from .graph import CubicGraph, bridges, has_perfect_matching, is_bipartite, is_perfect_matching, perfect_matchings
from .partition import NormalPartition
from .switching import CapExceeded

# k -> the ways to give each of k partitions its own slot at a vertex
_PERMS = {k: tuple(permutations(range(3), k)) for k in (1, 3)}


def find_nop(g: CubicGraph) -> Optional[NormalPartition]:
    """A normal odd partition, or None when the graph has no perfect
    matching (the two are equivalent; the partition is built from the
    first matching found)."""
    from .construct import nop_from_matching

    m = next(perfect_matchings(g), None)
    if m is None:
        return None
    return nop_from_matching(g, m)


def enumerate_markings(g: CubicGraph) -> Iterator[tuple[int, ...]]:
    """All 3^n total markings, lexicographic by slot index.  The search
    never scans them; the tests decode them all as its oracle."""
    return product(*g.vertex_darts)


def _check_cap(g: CubicGraph, cap: Optional[int]) -> None:
    if cap is not None and 3**g.n > cap:
        raise CapExceeded(f"3^{g.n} markings exceed cap {cap}")


def _distinct_partitions(g: CubicGraph, cap: Optional[int], odd: bool, allowed=None) -> list[NormalPartition]:
    """The normal partitions (odd ones only when odd is set) the table
    allowed admits, each once, in the order the search yields them; none
    is decoded (each decodes on first use).

    Two markings give the same partition exactly when they differ only at
    loop vertices, where either dart of the loop marks the same edge.  A
    marking of a loop's upper dart is dropped: its twin with the lower
    dart decodes too and comes first, as the search tries slots in dart
    order."""
    _check_cap(g, cap)
    uppers = {2 * e + 1 for e, (u, w) in enumerate(g.endpoints) if u == w}
    return [
        NormalPartition(g, marking)
        for (marking,) in _Search(g, 1, odd=odd, allowed=allowed).solutions()
        if not uppers or uppers.isdisjoint(marking)
    ]


def enumerate_nops(
    g: CubicGraph,
    cap: Optional[int] = None,
    conformal_to: Optional[frozenset[int]] = None,
) -> list[NormalPartition]:
    """All normal odd partitions, each once, in search order (not sorted:
    a caller that needs the canonical order sorts by p.trails), undecoded.

    With conformal_to set, keeps only partitions whose odd edges equal that
    matching.  A normal partition is conformal to a perfect matching m
    exactly when no vertex marks an edge of m (see partition.is_conformal),
    so the search enumerates conformal partitions directly, each vertex
    limited to its slots outside m.  Raises CapExceeded when 3^n, the
    number of markings, exceeds cap.
    """
    if conformal_to is None:
        return _distinct_partitions(g, cap, odd=True)
    m = frozenset(conformal_to)
    if not is_perfect_matching(g, m):
        _check_cap(g, cap)
        return []
    return _distinct_partitions(g, cap, odd=True, allowed=_conformal_rows(g, [m]))


def enumerate_normal_partitions(g: CubicGraph, cap: Optional[int] = None) -> list[NormalPartition]:
    """All normal partitions (odd or not), each once, in search order,
    undecoded (see enumerate_nops)."""
    return _distinct_partitions(g, cap, odd=False)


def _pinned(g: CubicGraph, fixed: dict[int, tuple[int, ...]]) -> dict[int, list[tuple[int, ...]]]:
    """The table of pins: at v the one perm marking the darts fixed[v],
    or none when they are not distinct darts at v."""
    out = {}
    for v, darts in fixed.items():
        slots = g.vertex_darts[v]
        ok = len(set(darts)) == len(darts) and set(darts) <= set(slots)
        out[v] = [tuple(map(slots.index, darts))] if ok else []
    return out


def _conformal_rows(g: CubicGraph, matchings: Sequence[frozenset[int]]) -> dict[int, list[tuple[int, ...]]]:
    """The table of partitions conformal to matchings, one each: at every
    vertex the perms, in _PERMS order, with no mark on its own matching."""
    perms = _PERMS[len(matchings)]
    return {
        v: [perm for perm in perms if all(slots[s] >> 1 not in m for s, m in zip(perm, matchings))]
        for v, slots in enumerate(g.vertex_darts)
    }


class _Search:
    """Backtracking over per-vertex slot choices with chain tracking.

    k is the number of partitions (1 or 3), odd turns the parity prune on,
    length_cap bounds every trail's length, and allowed maps a vertex to
    the perms it may take, in the order tried (all of _PERMS[k] at a vertex
    not in it).  A row of at most one perm is forced: entered first, and
    not counted as a node, so a refused one ends the search at 0 nodes.

    The plan is the vertex order (_order), computed once, and per vertex
    its choice row (_row), built when the kernel first enters the vertex
    and kept in rows (v -> its row, None for a vertex never entered; the
    k = 3 root row without a table is cut to its first perm).  The kernel
    keeps only the chain state, in three flat arrays of size k * 2m;
    partition p's dart d sits at index p * 2m + d:
      link[i]   -- for a chain-end dart i, the dart at the opposite end
      length[i] -- edge count of the chain, valid at end darts
      sealed[i] -- i is a marked (sealed) chain end
    A row holds a vertex's slot choices as parts: one (marked, a, b) per
    partition, in flat indices, a and b being the two darts the passage
    joins.  A k = 1 marking is kept as the kernel places it: accepting v
    writes its mark to marks[v], so a solution is one copy of that list;
    k = 3 keeps no mark store and reads its markings off the chosen parts.

    The refusal table dead, built once per search, covers every length a
    join reaches (no chain outgrows m edges) and says which chains are
    refused: dead[t] holds when t > cap, when t is even and parity is
    asked for, or when the cap is 3 and t < 3 (the n/2 trails of a normal
    partition share its 3n/2 edges, so with none over 3 each has exactly
    3).  A completed trail is refused at any dead length; an open chain
    is refused through the same table, at a dead length past the cap.

    A choice is accepted or rejected by reads alone.  Per partition, in
    order: the seal check (the marked dart ends a chain whose other end is
    sealed, and dead[its length]), then the join check (a-b closes a cycle,
    or makes a chain of a dead length t that passes the cap or has both
    ends sealed), where an end counts as sealed when it is the marked dart
    itself (x == marked or sealed[x]), since nothing is written yet.  Only
    an accepted choice writes.  The test and the write are spelled out per
    k, in a choice loop picked once per visit to a frame: k = 1 tests its
    one part, and k = 3 makes all the reads of its three parts before any
    write, which is sound as partition p's darts sit in their own block of
    2m.  Undo needs no journal: a joined dart is interior to its chain, and
    an interior dart's entries are never written, so while the frame is
    live link[a] and link[b] still name the ends the join wrote, and
    length[a] and length[b] still hold the lengths the two chains had.
    Frames unwind last in, first out, so each one restores exactly the
    state its vertex found.
    """

    def __init__(
        self,
        g: CubicGraph,
        k: int,
        odd: bool = True,
        length_cap: Optional[int] = None,
        allowed: Optional[dict[int, list[tuple[int, ...]]]] = None,
    ):
        self.g, self.k, self.odd, self.length_cap, self.allowed = g, k, odd, length_cap, allowed
        self.nodes = 0
        self.rows: list = []

    def _row(self, v: int) -> list:
        """v's choices as parts, one per perm of its row.  Partition p's
        three per-slot triples (the marked dart, then the two joined ones,
        offset by p * 2m) are built once and shared by v's perms; they are
        spelled out, as the row costs a good part of a search that enters
        each vertex about once."""
        k, nd = self.k, 2 * self.g.m
        perms = self.allowed.get(v, _PERMS[k]) if self.allowed else _PERMS[k]
        d0, d1, d2 = self.g.vertex_darts[v]
        t0 = ((d0, d1, d2), (d1, d0, d2), (d2, d0, d1))
        if k == 1:
            return [(t0[a],) for (a,) in perms]
        d0, d1, d2 = d0 + nd, d1 + nd, d2 + nd
        t1 = ((d0, d1, d2), (d1, d0, d2), (d2, d0, d1))
        d0, d1, d2 = d0 + nd, d1 + nd, d2 + nd
        t2 = ((d0, d1, d2), (d1, d0, d2), (d2, d0, d1))
        return [(t0[a], t1[b], t2[c]) for a, b, c in perms]

    def solutions(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Yield solutions as k markings.  For k = 3 with no table the
        first vertex entered keeps the identity bijection (one
        representative per unordered triple)."""
        g, k, n = self.g, self.k, self.g.n
        if k == 3 and g.has_loop():
            return  # a loop vertex cannot host three distinct marked edges
        if n == 0:
            yield ((),) * k
            return
        pins = {v for v, row in (self.allowed or {}).items() if len(row) <= 1}
        order = _order(g, pins)
        # v -> its choice row, built when the kernel first enters v
        rows: list = [None] * n
        self.rows = rows
        if k == 3 and self.allowed is None:  # symmetry break: one choice at the root
            rows[order[0]] = self._row(order[0])[:1]
        size = k * 2 * g.m
        link = list(range(1, size + 1))  # each dart's chain is its edge: link[i] = i ^ 1
        link[1::2] = range(0, size, 2)
        length = [1] * size
        sealed = [False] * size
        # no chain exceeds m edges, so m is no cap at all
        cap = g.m if self.length_cap is None else self.length_cap
        # the refusal table, one entry for every length a join reaches (at
        # most m, as n > 0 here); a chain past the cap is refused through
        # it, open or sealed, so no separate cap test runs
        exact = self.length_cap == 3
        dead = [t > cap or self.odd and not t & 1 or exact and t < 3 for t in range(g.m + 1)]
        chosen: list = [None] * n  # v -> the parts applied at v, or None
        marks = [0] * n  # v -> the mark accepted at v (k = 1)
        offsets = range(0, size, 2 * g.m)
        # placing a forced vertex is not a search node: the count reaches 0
        # once every one is placed, and reads 0 when one is refused
        nodes = -len(pins)
        # one frame per assigned depth: (vertex, iterator over its choices);
        # an explicit stack, so the depth is not bounded by the
        # interpreter's recursion limit
        stack: list[tuple] = []
        while True:
            v = order[len(stack)]
            row = rows[v]
            if row is None:
                row = rows[v] = self._row(v)
            stack.append((v, iter(row)))
            # place the next choice at the top frame, backtracking until one fits
            while stack:
                v, it = stack[-1]
                parts, chosen[v] = chosen[v], None
                if k == 1:
                    if parts is not None:
                        ((md, a, b),) = parts
                        x, y = link[a], link[b]
                        link[x], link[y] = a, b
                        length[x], length[y] = length[a], length[b]
                        sealed[md] = False
                    for parts in it:
                        nodes += 1
                        ((md, a, b),) = parts
                        if sealed[link[md]] and dead[length[md]]:
                            continue  # sealing md completes a refused trail
                        x = link[a]
                        if x == b:
                            continue  # joining a-b closes a cycle
                        y = link[b]
                        t = length[a] + length[b]
                        if dead[t] and (t > cap or (x == md or sealed[x]) and (y == md or sealed[y])):
                            continue  # the joined chain passes the cap or completes a refused trail
                        sealed[md] = True
                        link[x], link[y] = y, x
                        length[x] = length[y] = t
                        chosen[v] = parts
                        marks[v] = md
                        break
                else:
                    if parts is not None:
                        (m0, a0, b0), (m1, a1, b1), (m2, a2, b2) = parts
                        x0, y0, x1, y1, x2, y2 = link[a0], link[b0], link[a1], link[b1], link[a2], link[b2]
                        link[x0], link[y0], link[x1], link[y1], link[x2], link[y2] = a0, b0, a1, b1, a2, b2
                        length[x0], length[y0] = length[a0], length[b0]
                        length[x1], length[y1] = length[a1], length[b1]
                        length[x2], length[y2] = length[a2], length[b2]
                        sealed[m0] = sealed[m1] = sealed[m2] = False
                    for parts in it:  # the same four refusals, per partition
                        nodes += 1
                        (m0, a0, b0), (m1, a1, b1), (m2, a2, b2) = parts
                        if sealed[link[m0]] and dead[length[m0]]:
                            continue
                        x0 = link[a0]
                        if x0 == b0:
                            continue
                        y0 = link[b0]
                        t0 = length[a0] + length[b0]
                        if dead[t0] and (t0 > cap or (x0 == m0 or sealed[x0]) and (y0 == m0 or sealed[y0])):
                            continue
                        if sealed[link[m1]] and dead[length[m1]]:
                            continue
                        x1 = link[a1]
                        if x1 == b1:
                            continue
                        y1 = link[b1]
                        t1 = length[a1] + length[b1]
                        if dead[t1] and (t1 > cap or (x1 == m1 or sealed[x1]) and (y1 == m1 or sealed[y1])):
                            continue
                        if sealed[link[m2]] and dead[length[m2]]:
                            continue
                        x2 = link[a2]
                        if x2 == b2:
                            continue
                        y2 = link[b2]
                        t2 = length[a2] + length[b2]
                        if dead[t2] and (t2 > cap or (x2 == m2 or sealed[x2]) and (y2 == m2 or sealed[y2])):
                            continue
                        sealed[m0] = sealed[m1] = sealed[m2] = True
                        link[x0], link[y0], link[x1], link[y1], link[x2], link[y2] = y0, x0, y1, x1, y2, x2
                        length[x0] = length[y0] = t0
                        length[x1] = length[y1] = t1
                        length[x2] = length[y2] = t2
                        chosen[v] = parts
                        break
                if chosen[v] is None:
                    stack.pop()  # v is exhausted: leave it
                    continue
                if len(stack) < n:
                    break
                self.nodes = max(nodes, 0)
                if k == 1:  # each vertex's one mark, at offset 0
                    yield (tuple(marks),)
                else:
                    yield tuple(tuple(ps[p][0] - o for ps in chosen) for p, o in enumerate(offsets))
            else:
                self.nodes = max(nodes, 0)
                return


def _order(g: CubicGraph, pins: Collection[int]) -> list[int]:
    """The vertices in the order the search enters them: the pins, lowest
    id first, then repeatedly the vertex with the most neighbors already
    in the order (with multiplicity), ties to the lowest id.

    heaps[c] is a lazy min-heap of the ids counting c placed neighbors,
    and heaps[4] holds the pins; an entry whose vertex has since been
    placed (count -1) or counts more is dropped when it reaches the top.
    A vertex is pushed at most four times, so this is O(n log n)."""
    dv = g.dart_vertices
    count = [4 if v in pins else 0 for v in range(g.n)]
    heaps = [[v for v in range(g.n) if v not in pins], [], [], [], sorted(pins)]
    order = []
    for _ in range(g.n):
        c, h = 5, []
        while not h:
            c -= 1
            h = heaps[c]
            while h and count[h[0]] != c:
                heappop(h)
        v = heappop(h)
        count[v] = -1
        order.append(v)
        for d in g.vertex_darts[v]:
            w = dv[d ^ 1]
            if 0 <= count[w] < 4:
                count[w] += 1
                heappush(heaps[count[w]], w)
    return order


def enumerate_compatible_triples(
    g: CubicGraph,
    length_cap: Optional[int] = None,
    fixed: Optional[dict[int, tuple[int, int, int]]] = None,
) -> Iterator[tuple[NormalPartition, NormalPartition, NormalPartition]]:
    """All compatible triples of normal odd partitions, one representative
    per unordered triple, in deterministic search order.

    length_cap restricts trail lengths (3 decides all-length-3 existence).
    fixed pins the marked darts of chosen vertices, one dart per partition,
    turning the search into a constrained completion; pinned searches
    enumerate ordered triples since the pins already tell the three
    partitions apart.
    """
    # the search yields only markings that decode, so each partition
    # decodes on first use, and a caller that only asks whether a triple
    # exists decodes nothing
    pins = _pinned(g, fixed) if fixed else None
    for markings in _Search(g, 3, length_cap=length_cap, allowed=pins).solutions():
        yield tuple(NormalPartition(g, mk) for mk in markings)  # type: ignore[misc]


def find_compatible_triple(
    g: CubicGraph,
) -> Optional[tuple[NormalPartition, NormalPartition, NormalPartition]]:
    """First compatible triple of normal odd partitions, or None after the
    full (pruned) space is exhausted."""
    return next(enumerate_compatible_triples(g), None)


def find_length3_triple(
    g: CubicGraph,
) -> Optional[tuple[NormalPartition, NormalPartition, NormalPartition]]:
    """First compatible triple whose partitions all have length 3, if any:
    the triple search with every trail capped at 3 edges.  A normal
    partition's trails average exactly 3 edges, so the cap forces every
    trail to length 3."""
    return next(enumerate_compatible_triples(g, length_cap=3), None)


def check_graph(g: CubicGraph, which: str, gid: str = "?") -> dict:
    """Run one conjecture check on one graph; returns its copnc/1 sweep
    record: schema, check, id, n, the check's own fields, whether the
    graph "agree"s with the expected property, and "elapsed", seconds
    rounded to 6 digits.

    conj25: every bridgeless cubic graph should admit a compatible triple;
            a bridgeless graph without one is a counterexample and gets
            reported (never raised).
    thm12:  an all-length-3 compatible triple exists iff the graph is
            bipartite.
    thm5:   a normal odd partition exists iff a perfect matching does.
    """
    from .certificates import SCHEMA, certificate

    t0 = time.perf_counter()
    rec: dict = {"schema": SCHEMA, "check": which, "id": gid, "n": g.n}
    if which == "conj25":
        free = not bridges(g)
        triple = find_compatible_triple(g)
        rec["bridgeless"] = free
        rec["triple_found"] = triple is not None
        if triple is not None:
            rec["certificate"] = certificate(g, list(triple))
        rec["agree"] = (not free) or triple is not None
        if free and triple is None:
            rec["counterexample"] = True
    elif which == "thm12":
        bip, _ = is_bipartite(g)
        triple = find_length3_triple(g)
        rec["triple_found"] = triple is not None
        rec["bipartite"] = bip
        rec["agree"] = bip == (triple is not None)
    elif which == "thm5":
        pm = has_perfect_matching(g)
        nop = find_nop(g) if pm else None
        rec["matching_exists"] = pm
        rec["nop_exists"] = nop is not None
        rec["agree"] = pm == (nop is not None)
    else:
        raise ValueError(f"unknown check '{which}'")
    rec["elapsed"] = round(time.perf_counter() - t0, 6)
    return rec
