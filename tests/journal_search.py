"""The journaled backtracking search: the oracle for copnc.search._Search.

This is the engine the library ran before its journal-free kernel.  Each
sealing and joining appends its old values to an undo journal, a seal is
written before the join of the same partition, and the linear scan of
_next_vertex picks the next vertex.  The library's kernel rejects a slot
choice by reads alone and undoes a vertex from its own darts; it must
visit the same nodes and yield the same solutions in the same order.

Verbatim, the journal refuses a completed trail only when it is even or
over the cap.  Under a cap of 3 the kernel also refuses one shorter than
3 edges (a normal partition's trails average exactly 3 edges); the exact
option adds that rule here, so the capped node counts can be compared.

whole_plan_choices is the library's old plan of choice rows, built for
every vertex before the first node; the kernel now builds each row when it
first enters the vertex, and every row it builds must equal this one.
"""

from itertools import permutations
from typing import Iterator, Optional

from copnc.graph import CubicGraph

# k -> the ways to give each of k partitions its own slot at a vertex
PERMS = {k: tuple(permutations(range(3), k)) for k in (1, 3)}


def whole_plan_choices(g: CubicGraph, k: int, allowed: Optional[dict] = None) -> list[list]:
    """v -> its choices as parts, one per perm of its row (the perms of
    allowed[v], all of PERMS[k] at a vertex not in it).  Partition p's
    three per-slot triples (the marked dart, then the two joined ones,
    offset by p * 2m) are built once per vertex and shared by its perms."""
    allowed = allowed or {}
    nd = 2 * g.m
    out = []
    for v, slots in enumerate(g.vertex_darts):
        perms = allowed.get(v, PERMS[k])
        rows = [[d + o for d in slots] for o in range(0, k * nd, nd)]
        t = [((d0, d1, d2), (d1, d0, d2), (d2, d0, d1)) for d0, d1, d2 in rows]
        if k == 1:
            out.append([(t[0][a],) for (a,) in perms])
        else:
            t0, t1, t2 = t
            out.append([(t0[a], t1[b], t2[c]) for a, b, c in perms])
    return out


class JournalSearch:
    """Backtracking over per-vertex slot choices with chain tracking.

    Same arguments as copnc.search._Search.  Chain state per partition,
    over darts: link[d] is the dart at the opposite end of d's chain,
    length[d] its edge count (both valid at end darts), sealed[d] marks a
    sealed (marked) chain end.  Sealing and joining journal their writes.
    With exact set, a completed trail shorter than length_cap is refused
    too, so every trail has exactly length_cap edges; off by default.
    """

    def __init__(
        self,
        g: CubicGraph,
        k: int,
        odd: bool = True,
        length_cap: Optional[int] = None,
        fixed: Optional[dict[int, tuple[int, ...]]] = None,
        avoid: frozenset[int] = frozenset(),
        exact: bool = False,
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
            tuple(g.dart_vertices[d ^ 1] for d in g.vertex_darts[v]) for v in range(g.n)
        ]
        self.assigned_nbrs = [0] * g.n
        self.odd = odd
        self.length_cap = length_cap
        self.exact = exact
        self.fixed = dict(fixed) if fixed else {}
        self.perms = [
            tuple(
                perm
                for perm in PERMS[k]
                if all(g.vertex_darts[v][s] >> 1 not in avoid for s in perm)
            )
            for v in range(g.n)
        ] if avoid else [PERMS[k]] * g.n
        self.nodes = 0

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
            if self.exact and length[d] < self.length_cap:
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
        if self.exact and sealed[x] and sealed[y] and total < self.length_cap:
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

    def _apply(self, v: int, perm: tuple[int, ...]) -> Optional[int]:
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
        g = self.g
        if self.k == 3 and g.has_loop():
            return
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
        v = self._next_vertex()
        self._set_assigned(v, True)
        perms = self.perms[v][:1] if first else self.perms[v]
        return [v, iter(perms), None]

    def _set_assigned(self, v: int, on: bool) -> None:
        self.assigned[v] = on
        step = 1 if on else -1
        for w in self.neighbors[v]:
            self.assigned_nbrs[w] += step
