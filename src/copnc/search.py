"""One pruned search for normal partitions and compatible triples; sweeps.

Every search and enumeration here runs on one backtracking engine over
markings.  Each of k partitions marks one slot per vertex; the search
assigns vertices one at a time and keeps, per partition, the growing trail
fragments as chains of edges with open or sealed (marked) ends.  Pairing
two ends of the same chain would close a cycle and is pruned immediately;
for odd partitions, completing a chain whose edge count is even is pruned
as well.  A full assignment that survives the prunes is exactly a marking
that decodes, with all trails odd when parity is asked for.

k = 1 enumerates single normal (odd) partitions.  k = 3 searches for three
pairwise compatible normal odd partitions: compatibility at a cubic vertex
forces the three marked edges there to be three distinct edges, i.e. a
bijection between partitions and the vertex's slots, so a triple is one
bijection per vertex (6^n worst case instead of 27^n).  A vertex carrying
a loop has only two distinct incident edges and admits no bijection, so
such graphs have no triple and are rejected in O(1).

Exploration order: next vertex with the most already-assigned neighbors
(ties to the lowest id), which closes chains early.  For triples, the
first assigned vertex keeps the identity bijection: the three partitions
of a triple are interchangeable, so every solution class is still found,
once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .graph import CubicGraph, bridges, has_perfect_matching, is_bipartite, perfect_matchings
from .partition import (
    NormalPartition,
    associated_matching,
    trails_from_marking,
    triple_set,
)
from .switching import CapExceeded

# k -> the ways to give each of k partitions its own slot at a vertex
_PERMS = {k: tuple(permutations(range(3), k)) for k in (1, 3)}


class EmptyIntersectionViolated(AssertionError):
    """Three matchings from a compatible triple met in an edge: a bug."""


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


def _distinct_partitions(
    g: CubicGraph, cap: Optional[int], odd: bool, avoid: frozenset[int] = frozenset()
) -> list[NormalPartition]:
    """The normal partitions (odd ones only when odd is set) marking no
    edge of avoid, decoded from the one-partition search, deduplicated by
    key and sorted by it."""
    _check_cap(g, cap)
    out: dict[tuple, NormalPartition] = {}
    for (marking,) in _Search(g, 1, odd=odd, avoid=avoid).solutions():
        p = trails_from_marking(g, marking)
        out.setdefault(p.key, p)
    return [out[k] for k in sorted(out)]


def _is_perfect_matching(g: CubicGraph, m: frozenset[int]) -> bool:
    ends = [v for e in m if 0 <= e < g.m for v in g.endpoints[e]]
    return len(ends) == 2 * len(m) == g.n and len(set(ends)) == g.n


def enumerate_nops(
    g: CubicGraph,
    cap: Optional[int] = None,
    conformal_to: Optional[frozenset[int]] = None,
) -> list[NormalPartition]:
    """All normal odd partitions, deduplicated, in canonical order.

    With conformal_to set, keeps only partitions whose odd edges equal that
    matching.  An odd partition is conformal to a perfect matching m
    exactly when no vertex marks an edge of m: every passage then holds
    the m-edge at its vertex, so each trail alternates between edges
    outside m and in m, beginning and ending outside m, which makes it odd
    with its m-edges exactly at its even positions.  So the search
    enumerates conformal partitions directly, each vertex limited to its
    slots outside m.  Raises CapExceeded when 3^n, the number of markings,
    exceeds cap.
    """
    if conformal_to is None:
        return _distinct_partitions(g, cap, odd=True)
    m = frozenset(conformal_to)
    if not _is_perfect_matching(g, m):
        _check_cap(g, cap)
        return []
    return _distinct_partitions(g, cap, odd=True, avoid=m)


def enumerate_normal_partitions(g: CubicGraph, cap: Optional[int] = None) -> list[NormalPartition]:
    """All normal partitions (odd or not), deduplicated canonically."""
    return _distinct_partitions(g, cap, odd=False)


class _Search:
    """Backtracking over per-vertex slot choices with chain tracking.

    k is the number of partitions (1 or 3), odd turns the parity prune on,
    length_cap bounds every trail's length, fixed pins the marked darts
    of chosen vertices, one dart per partition, and no partition marks an
    edge of avoid.

    Chain state per partition, over darts:
      link[d]   -- for a chain-end dart d, the dart at the opposite end
      length[d] -- edge count of the chain, valid at end darts
      sealed[d] -- d is a marked (sealed) chain end
    Sealing and joining journal their writes so assignments undo in O(1).
    marks[p][v] is the dart partition p marks at v, valid once v is
    assigned.
    """

    def __init__(
        self,
        g: CubicGraph,
        k: int,
        odd: bool = True,
        length_cap: Optional[int] = None,
        fixed: Optional[dict[int, tuple[int, ...]]] = None,
        avoid: frozenset[int] = frozenset(),
    ):
        self.g = g
        self.n = g.n
        self.k = k
        nd = 2 * g.m
        self.link = [[d ^ 1 for d in range(nd)] for _ in range(k)]
        self.length = [[1] * nd for _ in range(k)]
        self.sealed = [[False] * nd for _ in range(k)]
        self.marks = [[0] * g.n for _ in range(k)]
        self.assigned = [False] * g.n
        self.trail: list[tuple] = []  # undo journal
        self.neighbors = [
            tuple(g.dart_vertex(d ^ 1) for d in g.vertex_darts[v]) for v in range(g.n)
        ]
        self.assigned_nbrs = [0] * g.n
        self.odd = odd
        self.length_cap = length_cap
        self.fixed = dict(fixed) if fixed else {}
        # v -> its slot choices, one slot per partition, none marking avoid
        self.perms = [
            tuple(
                perm
                for perm in _PERMS[k]
                if all(g.vertex_darts[v][s] >> 1 not in avoid for s in perm)
            )
            for v in range(g.n)
        ] if avoid else [_PERMS[k]] * g.n
        self.nodes = 0

    # -- journaled chain ops -------------------------------------------

    def _seal(self, p: int, d: int) -> bool:
        sealed, link, length = self.sealed[p], self.link[p], self.length[p]
        self.trail.append((0, p, d))
        sealed[d] = True
        other = link[d]
        if sealed[other]:
            if self.odd and length[d] % 2 == 0:
                return False
            if self.length_cap is not None and length[d] > self.length_cap:
                return False
        return True

    def _join(self, p: int, a: int, b: int) -> bool:
        link, length, sealed = self.link[p], self.length[p], self.sealed[p]
        if link[a] == b:
            return False  # closes a cycle
        x, y = link[a], link[b]
        total = length[a] + length[b]
        self.trail.append((1, p, x, link[x], length[x]))
        self.trail.append((1, p, y, link[y], length[y]))
        link[x] = y
        link[y] = x
        length[x] = total
        length[y] = total
        if self.length_cap is not None and total > self.length_cap:
            return False  # chains never shrink
        if self.odd and sealed[x] and sealed[y] and total % 2 == 0:
            return False
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            rec = self.trail.pop()
            if rec[0] == 0:
                _, p, d = rec
                self.sealed[p][d] = False
            else:
                _, p, d, lk, ln = rec
                self.link[p][d] = lk
                self.length[p][d] = ln

    # -- vertex assignment ----------------------------------------------

    def _apply(self, v: int, perm: tuple[int, ...]) -> Optional[int]:
        """Assign v, partition p marking slot perm[p]; returns the journal
        mark on success, None on contradiction (already undone)."""
        mark = len(self.trail)
        slots = self.g.vertex_darts[v]
        for p, s in enumerate(perm):
            md = slots[s]
            self.marks[p][v] = md
            oth = [slots[i] for i in range(3) if i != s]
            if not self._seal(p, md) or not self._join(p, oth[0], oth[1]):
                self._undo(mark)
                return None
        return mark

    def _next_vertex(self) -> int:
        best, score = -1, -1
        for v in range(self.n):
            if not self.assigned[v] and self.assigned_nbrs[v] > score:
                best, score = v, self.assigned_nbrs[v]
        return best

    def solutions(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Yield solutions as k markings.  For k = 3 without pins the first
        vertex assigned keeps the identity bijection (one representative
        per unordered triple)."""
        g = self.g
        if self.k == 3 and g.has_loop():
            return  # a loop vertex cannot host three distinct marked edges
        # pinned vertices come first; their slot choices are forced
        base_depth = 0
        for v in sorted(self.fixed):
            slots = g.vertex_darts[v]
            darts = self.fixed[v]
            if sorted(darts) != sorted(set(darts)) or any(d not in slots for d in darts):
                return
            perm = tuple(slots.index(d) for d in darts)
            self._set_assigned(v, True)
            if self._apply(v, perm) is None:
                return
            base_depth += 1
        if base_depth == self.n:
            yield tuple(tuple(m) for m in self.marks)
            return
        break_symmetry = self.k == 3 and not self.fixed
        # one frame per assigned depth: [vertex, iterator over its perms,
        # journal mark of the applied perm or None]; an explicit stack, so
        # the depth is not bounded by the interpreter's recursion limit
        stack = [self._enter(break_symmetry)]
        while stack:
            frame = stack[-1]
            v, perms, mark = frame
            if mark is not None:
                self._undo(mark)
                frame[2] = None
            for perm in perms:
                self.nodes += 1
                mark = self._apply(v, perm)
                if mark is not None:
                    frame[2] = mark
                    break
            else:
                stack.pop()
                self._set_assigned(v, False)
                continue
            if base_depth + len(stack) == self.n:
                yield tuple(tuple(m) for m in self.marks)
            else:
                stack.append(self._enter(False))

    def _enter(self, first: bool) -> list:
        """Assign the next vertex and return its stack frame; the first
        vertex of a symmetry-broken search keeps only its first perm."""
        v = self._next_vertex()
        self._set_assigned(v, True)
        perms = self.perms[v][:1] if first else self.perms[v]
        return [v, iter(perms), None]

    def _set_assigned(self, v: int, on: bool) -> None:
        self.assigned[v] = on
        step = 1 if on else -1
        for w in self.neighbors[v]:
            self.assigned_nbrs[w] += step


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
    searcher = _Search(g, 3, length_cap=length_cap, fixed=fixed)
    for markings in searcher.solutions():
        triple = tuple(trails_from_marking(g, mk) for mk in markings)
        yield triple  # type: ignore[misc]


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


def fan_raspaud_witness(
    triple: Sequence[NormalPartition],
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The three associated matchings of a compatible odd triple; their
    triple intersection is empty (raising otherwise would flag a bug)."""
    p1, p2, p3 = triple
    if triple_set(p1, p2, p3):
        raise ValueError("triple is not pairwise compatible")
    m1, m2, m3 = (associated_matching(p) for p in triple)
    if m1 & m2 & m3:
        raise EmptyIntersectionViolated(sorted(m1 & m2 & m3))
    return m1, m2, m3


def complete_system(
    g: CubicGraph, k: int, cap: int = 10**6
) -> Optional[list[NormalPartition]]:
    """k normal odd partitions such that every vertex sees three of them
    marking three distinct edges, or None when no such system exists.

    At a cubic vertex three pairwise distinct marked edges must be all
    three incident edges, so the condition is: every slot edge of every
    vertex is marked by some member.  Tiny graphs only; the candidate pool
    is the full set of normal odd partitions.
    """
    if k < 3:
        raise ValueError("a complete system has order at least 3")
    if g.has_loop():
        return None
    pool = enumerate_nops(g, cap=cap)
    need: list[frozenset[int]] = [frozenset(g.edges_at(v)) for v in range(g.n)]
    nodes = 0

    def covered(chosen: list[NormalPartition]) -> bool:
        for v in range(g.n):
            got = {p.marked_edge(v) for p in chosen}
            if not need[v] <= got:
                return False
        return True

    def rec(start: int, chosen: list[NormalPartition]) -> Optional[list[NormalPartition]]:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"complete-system search exceeded {cap} nodes")
        if len(chosen) == k:
            return list(chosen) if covered(chosen) else None
        # prune: remaining picks must be able to finish the coverage
        remaining = k - len(chosen)
        for v in range(g.n):
            got = {p.marked_edge(v) for p in chosen}
            if len(need[v] - got) > remaining:
                return None
        for i in range(start, len(pool)):
            chosen.append(pool[i])
            hit = rec(i + 1, chosen)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    return rec(0, [])


@dataclass
class SweepReport:
    """One record of a conjecture sweep over a graph corpus."""

    id: str
    n: int
    check: str
    bridgeless: Optional[bool] = None
    triple_found: Optional[bool] = None
    agree: Optional[bool] = None
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        out = {
            "schema": "copnc/1",
            "check": self.check,
            "id": self.id,
            "n": self.n,
            "elapsed": round(self.elapsed, 6),
        }
        if self.bridgeless is not None:
            out["bridgeless"] = self.bridgeless
        if self.triple_found is not None:
            out["triple_found"] = self.triple_found
        if self.agree is not None:
            out["agree"] = self.agree
        out.update(self.detail)
        return out


def check_graph(g: CubicGraph, which: str, gid: str = "?") -> SweepReport:
    """Run one conjecture check on one graph.

    conj25: every bridgeless cubic graph should admit a compatible triple;
            a bridgeless graph without one is a counterexample and gets
            reported (never raised).
    thm12:  an all-length-3 compatible triple exists iff the graph is
            bipartite.
    thm5:   a normal odd partition exists iff a perfect matching does.
    """
    from .certificates import certificate

    t0 = time.perf_counter()
    if which == "conj25":
        free = not bridges(g)
        triple = find_compatible_triple(g)
        rep = SweepReport(gid, g.n, which, bridgeless=free, triple_found=triple is not None)
        if triple is not None:
            rep.detail["certificate"] = certificate(g, list(triple))
        rep.agree = (not free) or triple is not None
        if free and triple is None:
            rep.detail["counterexample"] = True
    elif which == "thm12":
        bip, _ = is_bipartite(g)
        triple = find_length3_triple(g)
        rep = SweepReport(gid, g.n, which, triple_found=triple is not None)
        rep.detail["bipartite"] = bip
        rep.agree = bip == (triple is not None)
    elif which == "thm5":
        nop = find_nop(g)
        pm = has_perfect_matching(g)
        rep = SweepReport(gid, g.n, which)
        rep.detail["matching_exists"] = pm
        rep.detail["nop_exists"] = nop is not None
        rep.agree = pm == (nop is not None)
    else:
        raise ValueError(f"unknown check '{which}'")
    rep.elapsed = time.perf_counter() - t0
    return rep

