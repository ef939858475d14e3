"""Trails, normal partitions, markings, odd/even edges, compatibility.

A *trail* is a walk with distinct edges (vertices may repeat), held as the
pair (vertices, edges) of its id tuples.  A partition
of the edge set into trails is *normal* when every vertex is an internal
vertex of some trail and an end vertex of exactly one trail end.  A normal
partition of a cubic graph has exactly n/2 trails, and each vertex v owns a
unique *marked* edge: the end edge of the one trail end at v.

The marking (one chosen edge-end per vertex) is a faithful, compact dual of
the partition: the two unmarked slots at each vertex form the internal
passage, and walking passages from marked slots reconstructs the trails.
A marking decodes successfully exactly when no edge set closes into an
internally paired cycle.  NormalPartition is the graph and the marking
alone, and the marking is its only dart table: a trail holds vertex and
edge ids, no darts.  The trails are decoded on demand by
`trails_from_marking`, which follows the step rule of the walker `walk`
and builds each trail in the same pass, canonically oriented and ordered,
so the tuple of trails is the partition's canonical key; `validate_normal`
reads the marking off the ends of given trails and walks each given trail
under it, comparing ids step by step, so it decodes nothing and checks
the trails one by one only to name what is wrong.  `walk` itself serves
the conformal switch and names the cycle of a marking that does not
decode.
Compatibility and agreement read the marking through one helper,
`agreement`.

An odd partition is one whose trails all have odd length.  The edge at
1-based position i of a trail is *odd* when both subtrails left by deleting
it have odd length, which happens exactly at even i; the odd edges of an
odd partition form a perfect matching (each vertex meets exactly one).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq, rshift
from typing import Optional, Sequence, Union

from .graph import CubicGraph, is_perfect_matching


class CycleError(ValueError):
    """A marking pairs some edges into a closed cycle; no partition exists."""

    def __init__(self, cycle_edges: Sequence[int]):
        self.cycle_edges = tuple(cycle_edges)
        super().__init__(f"internally paired cycle on edges {sorted(self.cycle_edges)}")


class NotOdd(ValueError):
    """Operation requires an odd partition."""


class InvalidPartition(ValueError):
    """Trails do not form a normal partition; carries all violations."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in violations))


class _Record:
    """An immutable record whose fields are the names its class annotates,
    in order, given by position.  It hashes as the tuple of its fields and
    equals only a record of its own class with equal fields."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({inner})"


class NotAPartition(_Record):
    edge: int
    count: int  # how many times the edge is covered (0 or >= 2)

    def __str__(self) -> str:
        word = "uncovered" if self.count == 0 else f"covered {self.count} times"
        return f"edge {self.edge} {word}"


class VertexNeverInternal(_Record):
    vertex: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} is never an internal vertex"


class VertexEndCount(_Record):
    vertex: int
    count: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} is a trail end {self.count} times, expected 1"


class NotATrail(_Record):
    index: int
    reason: str  # what _malformed says of the trail

    def __str__(self) -> str:
        return f"trail {self.index} malformed: {self.reason}"


Violation = Union[NotAPartition, VertexNeverInternal, VertexEndCount, NotATrail]


def _malformed(g: CubicGraph, vertices: Sequence[int], edges: Sequence[int]) -> Optional[str]:
    """Why the id lists are not a trail of g, or None when they are: at
    least one edge, one vertex more than edges, no edge twice, and each
    edge joining the vertices on either side of it."""
    if len(edges) < 1 or len(vertices) != len(edges) + 1:
        return f"{len(vertices)} vertices with {len(edges)} edges"
    if len(set(edges)) != len(edges):
        return "repeated edge id"
    for i, e in enumerate(edges):
        if not 0 <= e < g.m:
            return f"edge id {e} out of range"
        a, b = g.endpoints[e]
        u, v = vertices[i], vertices[i + 1]
        if (u, v) != (a, b) and (v, u) != (a, b):
            if a == b:
                return f"loop {e} does not sit at step {i}"
            return f"edge {e}=({a},{b}) does not join {u},{v}"
    return None


class NormalPartition:
    """A normal partition: a graph and its marking (vertex -> marked dart).

    The marking is the only state: it is exactly what a switch changes,
    and compatibility, agreement and passages read it alone.  The trails
    are decoded from it on first access and cached; a partition built by
    decoding carries them from the start, one that validate_normal
    checked against given trails does not.  The associated matching is
    cached as well, computed from the trails on first use.

    The trails are canonical, so they are the partition's key: two
    partitions are equal exactly when their trail sets agree modulo
    reversal, which also makes them equal exactly when their markings
    agree edge-end-wise at non-loop slots.  Sort partitions by trails.
    """

    __slots__ = ("graph", "marked", "_trails", "_matching")

    def __init__(self, graph: CubicGraph, marked: Sequence[int]):
        self.graph = graph
        self.marked = tuple(marked)          # vertex -> marked dart
        self._trails: Optional[tuple[tuple, ...]] = None
        self._matching: Optional[frozenset[int]] = None

    @property
    def trails(self) -> tuple[tuple, ...]:
        """Trails as (vertices, edges) id tuples, in canonical order, each
        in its canonical orientation: from its lower end vertex, by that
        end."""
        if self._trails is None:
            self._trails = trails_from_marking(self.graph, self.marked)._trails
        return self._trails

    # -- views ------------------------------------------------------------

    def marked_edge(self, v: int) -> int:
        return self.marked[v] >> 1

    def marked_edges(self) -> tuple[int, ...]:
        return tuple(map(rshift, self.marked, repeat(1)))

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(es) for _, es in self.trails)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalPartition)
            and self.graph == other.graph
            and self.trails == other.trails
        )

    def __hash__(self) -> int:
        return hash(self.trails)

    def __repr__(self) -> str:
        return f"NormalPartition({len(self.trails)} trails, lengths {list(length_profile(self))})"


def partition_violations(g: CubicGraph, trails: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[Violation]:
    """All ways the trails, (vertices, edges) id lists that _malformed
    passes, fail to be a normal partition; empty when valid."""
    cover = [0] * g.m
    end_count = [0] * g.n
    internal_count = [0] * g.n
    for vs, es in trails:
        for e in es:
            cover[e] += 1
        end_count[vs[0]] += 1
        end_count[vs[-1]] += 1
        for v in vs[1:-1]:
            internal_count[v] += 1
    out: list[Violation] = []
    for e, c in enumerate(cover):
        if c != 1:
            out.append(NotAPartition(e, c))
    for v in range(g.n):
        if internal_count[v] == 0:
            out.append(VertexNeverInternal(v))
        if end_count[v] != 1:
            out.append(VertexEndCount(v, end_count[v]))
    return out


def validate_normal(g: CubicGraph, trails: Sequence[tuple[Sequence[int], Sequence[int]]]) -> NormalPartition:
    """Check that the trails, given as (vertices, edges) id lists, form a
    normal partition, and return it undecoded: the partition of the
    marking read off the trail ends, whose trails are decoded on first
    use.  A trail marks, at its first vertex, its first edge's dart there
    and, at its last vertex, its last edge's dart there; a loop gives its
    lower dart at a first vertex and its upper dart at a last one.

    The trails are normal exactly when each vertex is an end once and each
    trail is the walk (walk's step rule) under that marking from its
    first vertex's mark, stopping at its last ids: the walks of distinct
    ends are edge-disjoint, so when their lengths add up to m no edge is
    left over for a cycle.  End ids are range-checked before they index
    anything, the others only compared, and no tuple or lookup is built.
    When a walk differs, _malformed checks each trail and
    partition_violations names what is wrong.

    Raises InvalidPartition carrying every violated condition with its
    witness: each malformed trail or, when none is, every failed
    normal-partition condition.
    """
    n, m, at, slots = g.n, g.m, g.dart_vertices, g.vertex_darts
    marked = [-1] * n
    try:  # a LookupError: not the trails their ends walk to
        for vs, es in trails:
            v, w, e, f = vs[0], vs[-1], es[0], es[-1]
            if not (0 <= v < n and 0 <= w < n and 0 <= e < m and 0 <= f < m):
                raise LookupError
            marked[v] = d = 2 * e if at[2 * e] == v else 2 * e + 1
            marked[w] = x = 2 * f + 1 if at[2 * f + 1] == w else 2 * f
            if at[d] != v or at[x] != w:
                raise LookupError  # an end edge not at its end vertex
        if 2 * len(trails) != n or -1 in marked:
            raise LookupError  # some vertex is not an end exactly once
        walked = 0
        for vs, es in trails:
            last = len(es)
            if len(vs) != last + 1:
                raise LookupError
            walked += last
            cur, i = marked[vs[0]], 0
            for e in es:
                i += 1
                nxt = cur ^ 1
                w = at[nxt]
                if e != cur >> 1 or w != vs[i]:
                    raise LookupError
                mk = marked[w]
                if mk == nxt:
                    break
                a, b, c = slots[w]
                cur = a + b + c - nxt - mk
            if i != last or mk != nxt:
                raise LookupError  # the walk stops before or after the trail
        if walked == m:
            return NormalPartition(g, marked)
    except LookupError:
        pass
    bad: list[Violation] = []
    for j, (vs, es) in enumerate(trails):
        why = _malformed(g, vs, es)
        if why is not None:
            bad.append(NotATrail(j, why))
    raise InvalidPartition(bad or partition_violations(g, trails))


def walk(g: CubicGraph, marked: Sequence[int], start: int) -> list[int]:
    """The darts left through when following a trail from dart start under
    the marking, in order.  Each step crosses an edge into a vertex w and
    leaves w by its third dart, a + b + c - entry - marked[w] over w's
    slots a, b, c, until it enters w through the marked dart.

    A walk from a marked dart covers its whole trail, one from a passage
    dart the part of its trail beyond that dart.  A walk that comes back
    to start has gone round a cycle of unmarked darts and stops there.
    """
    slots = g.vertex_darts
    at = g.dart_vertices
    out = [start]
    cur = start
    while True:
        nxt = cur ^ 1
        w = at[nxt]
        mk = marked[w]
        if mk == nxt:
            return out
        a, b, c = slots[w]
        cur = a + b + c - nxt - mk
        if cur == start:
            return out
        out.append(cur)


def trails_from_marking(g: CubicGraph, marking: Sequence[int]) -> NormalPartition:
    """Decode a total marking (vertex -> dart) into its normal partition,
    which keeps the marking exactly as given.

    Walks one trail from each marked dart whose vertex no earlier trail
    ended at, by walk's step rule, and builds the trail's vertices and
    edges in the same pass; its darts stay in the marking, a loop end's
    dart as given.  Each trail comes out canonically oriented, from its
    lower end, and the trails in canonical order, by that end: vertices are
    taken in increasing order, each vertex ends exactly one trail, and the
    two ends of a trail are distinct vertices (a walk from d that came
    back in through d would be its own reversal, and the passage at its
    middle would pair a dart with itself).  Raises CycleError, with walk's
    cycle through the lowest edge left over as witness, when some edges
    close into a cycle instead of trails.
    """
    marking = tuple(marking)
    if len(marking) != g.n:
        raise ValueError("marking must assign one dart per vertex")
    slots = g.vertex_darts
    for v, d in enumerate(marking):
        if d not in slots[v]:
            raise ValueError(f"marked dart {d} is not at vertex {v}")
    at = g.dart_vertices
    ended = [False] * g.n
    trails: list[tuple] = []
    walked = 0
    for v, d in enumerate(marking):
        if ended[v]:
            continue
        verts, edges, cur = [v], [], d
        while True:
            nxt = cur ^ 1
            w = at[nxt]
            verts.append(w)
            edges.append(cur >> 1)
            mk = marking[w]
            if mk == nxt:
                break
            a, b, c = slots[w]
            cur = a + b + c - nxt - mk
        ended[w] = True  # the trail's far end
        walked += len(edges)
        trails.append((tuple(verts), tuple(edges)))
    if walked < g.m:
        covered = {e for _, es in trails for e in es}
        e0 = next(e for e in range(g.m) if e not in covered)
        raise CycleError([x >> 1 for x in walk(g, marking, 2 * e0)])
    p = NormalPartition(g, marking)
    p._trails = tuple(trails)
    return p


def is_odd(p: NormalPartition) -> bool:
    return all(len(es) & 1 for _, es in p.trails)


def associated_matching(p: NormalPartition) -> frozenset[int]:
    """Union of the odd edges over all trails; a perfect matching.

    Cached on p.  Raises NotOdd when some trail has even length.
    """
    if p._matching is None:
        odd: list[int] = []
        for _, es in p.trails:
            if len(es) % 2 == 0:
                raise NotOdd("partition has an even trail")
            odd += es[1::2]
        p._matching = frozenset(odd)
    return p._matching


def is_conformal(p: NormalPartition, m: frozenset[int]) -> bool:
    """True when p is odd and its odd edges are exactly the edge set m.

    Read off the marking: that holds exactly when m is a perfect matching
    and no vertex marks an edge of m.  Then every passage pairs the one
    m-edge at its vertex with an edge outside m, so each trail alternates,
    beginning and ending outside m: it is odd with its m-edges exactly at
    its even positions.  Conversely the odd edges of an odd partition form
    a perfect matching, and end edges sit at odd positions, so no vertex
    marks one.  An even partition gives False.
    """
    m = frozenset(m)
    return is_perfect_matching(p.graph, m) and m.isdisjoint(map(rshift, p.marked, repeat(1)))


def agreement(parts: Sequence[NormalPartition]) -> list[int]:
    """Vertices where two of the partitions mark the same edge, ascending.

    For two partitions this is their compatibility set, for three the
    union of the pairwise sets; the partitions are pairwise compatible
    exactly when it is empty.
    """
    g = parts[0].graph
    if any(p.graph != g for p in parts[1:]):
        raise ValueError("partitions live on different graphs")
    marks = [p.marked_edges() for p in parts]
    if len(marks) == 2:
        return list(compress(range(g.n), map(eq, *marks)))
    if len(marks) == 3:
        return [v for v, (a, b, c) in enumerate(zip(*marks)) if a == b or a == c or b == c]
    k = len(marks)
    return [v for v, es in enumerate(zip(*marks)) if len(set(es)) < k]


def length_profile(p: NormalPartition) -> tuple[int, ...]:
    """Trail lengths in decreasing order, e.g. (5, 3, 3, 3, 1)."""
    return tuple(sorted(p.lengths(), reverse=True))
