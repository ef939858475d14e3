"""Trails, normal partitions, markings, odd/even edges, compatibility.

A *trail* is a walk with distinct edges (vertices may repeat).  A partition
of the edge set into trails is *normal* when every vertex is an internal
vertex of some trail and an end vertex of exactly one trail end.  A normal
partition of a cubic graph has exactly n/2 trails, and each vertex v owns a
unique *marked* edge: the end edge of the one trail end at v.

The marking (one chosen edge-end per vertex) is a faithful, compact dual of
the partition: the two unmarked slots at each vertex form the internal
passage, and following passages from marked slots reconstructs the trails.
A marking decodes successfully exactly when no edge set closes into an
internally paired cycle.  NormalPartition stores the marking; its trails
are decoded lazily when a partition was built from a marking alone.

An odd partition is one whose trails all have odd length.  The edge at
1-based position i of a trail is *odd* when both subtrails left by deleting
it have odd length, which happens exactly at even i; the odd edges of an
odd partition form a perfect matching (each vertex meets exactly one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graph import CubicGraph


class MalformedTrail(ValueError):
    """A trail description violates incidence or edge distinctness."""


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


class AuditViolation(AssertionError):
    """The edge-role structure of a triple is broken: an implementation bug."""

    def __init__(self, edge: int, roles: tuple[str, str, str]):
        self.edge = edge
        self.roles = roles
        super().__init__(f"edge {edge} has roles {roles}")


@dataclass(frozen=True)
class NotAPartition:
    edge: int
    count: int  # how many times the edge is covered (0 or >= 2)

    def __str__(self) -> str:
        word = "uncovered" if self.count == 0 else f"covered {self.count} times"
        return f"edge {self.edge} {word}"


@dataclass(frozen=True)
class VertexNeverInternal:
    vertex: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} is never an internal vertex"


@dataclass(frozen=True)
class VertexEndCount:
    vertex: int
    count: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} is a trail end {self.count} times, expected 1"


Violation = Union[NotAPartition, VertexNeverInternal, VertexEndCount]


class Trail:
    """Alternating vertex/edge sequence with distinct edges.

    Stored with an orientation but compared up to reversal.  Darts are
    resolved per step; a loop step uses the lower dart outbound, so equal
    vertex/edge sequences resolve to equal dart sequences.
    """

    __slots__ = ("vertices", "edges", "out_darts", "_key")

    def __init__(self, g: CubicGraph, vertices: Sequence[int], edges: Sequence[int]):
        vertices = tuple(vertices)
        edges = tuple(edges)
        if len(edges) < 1 or len(vertices) != len(edges) + 1:
            raise MalformedTrail(f"{len(vertices)} vertices with {len(edges)} edges")
        if len(set(edges)) != len(edges):
            raise MalformedTrail("repeated edge id")
        out = []
        for i, e in enumerate(edges):
            if not 0 <= e < g.m:
                raise MalformedTrail(f"edge id {e} out of range")
            a, b = g.endpoints[e]
            u, v = vertices[i], vertices[i + 1]
            if a == b:
                if u != a or v != a:
                    raise MalformedTrail(f"loop {e} does not sit at step {i}")
                out.append(2 * e)
            elif (u, v) == (a, b):
                out.append(2 * e)
            elif (u, v) == (b, a):
                out.append(2 * e + 1)
            else:
                raise MalformedTrail(f"edge {e}=({a},{b}) does not join {u},{v}")
        self.vertices = vertices
        self.edges = edges
        self.out_darts = tuple(out)
        self._key = min((vertices, edges), (vertices[::-1], edges[::-1]))

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def end_darts(self, g: CubicGraph) -> tuple[int, int]:
        """The two end slots: dart of the first edge at vertices[0] and of
        the last edge at vertices[-1]."""
        first = self.out_darts[0]
        last = self.out_darts[-1] ^ 1
        return first, last

    def reversed(self, g: CubicGraph) -> "Trail":
        return Trail(g, self.vertices[::-1], self.edges[::-1])

    @property
    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Trail) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Trail({'-'.join(map(str, self.vertices))} via {list(self.edges)})"


def odd_edges(trail: Trail) -> tuple[int, ...]:
    """Edges at even 1-based positions: both deletion subtrails are odd.

    A trail of length 1 has no odd edge: deleting its edge leaves two empty,
    hence even, subtrails.
    """
    return tuple(trail.edges[i] for i in range(1, trail.length, 2))


class NormalPartition:
    """A normal partition, stored as its marking (vertex -> marked dart).

    The marking is the primary state: it is exactly what a switch changes,
    and compatibility and agreement read it alone.  The trails, passages,
    edge positions and canonical key follow from it by decoding.  A
    partition built by decoding or validating trails carries them from the
    start; one built from a marking already known to decode (a switch
    result) computes them on first access and caches them.  The associated
    matching is cached as well: computed from the trails on first use, or
    given up front by a conformal switch, which checks it locally.

    Equality and hashing treat trails up to reversal: two partitions are
    equal exactly when their trail sets agree modulo reversal, which also
    makes them equal exactly when their markings agree edge-end-wise at
    non-loop slots.
    """

    __slots__ = ("graph", "marked", "_trails", "_passage", "_edge_pos", "_key", "_matching")

    def __init__(self, graph: CubicGraph, marked: Sequence[int], matching: Optional[frozenset[int]] = None):
        self.graph = graph
        self.marked = tuple(marked)          # vertex -> marked dart
        self._trails: Optional[tuple[Trail, ...]] = None
        self._matching = matching

    def _decoded(self) -> "NormalPartition":
        if self._trails is None:
            q = trails_from_marking(self.graph, self.marked)
            self._passage, self._edge_pos, self._key = q._passage, q._edge_pos, q._key
            self._trails = q._trails
        return self

    @property
    def trails(self) -> tuple[Trail, ...]:
        """Trails in canonical order, each in its canonical orientation."""
        return self._decoded()._trails

    @property
    def passage(self) -> tuple[tuple[int, int], ...]:
        """vertex -> its two internal darts, sorted."""
        return self._decoded()._passage

    @property
    def edge_pos(self) -> tuple[tuple[int, int], ...]:
        """edge -> (trail index, 1-based position)."""
        return self._decoded()._edge_pos

    @property
    def key(self):
        return self._decoded()._key

    # -- views ------------------------------------------------------------

    def marked_edge(self, v: int) -> int:
        return self.marked[v] >> 1

    def marked_edges(self) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.marked)

    def passage_edges(self, v: int) -> tuple[int, int]:
        a, b = self.passage[v]
        return (a >> 1, b >> 1)

    def trail_of_edge(self, e: int) -> Trail:
        return self.trails[self.edge_pos[e][0]]

    def is_internal_edge(self, e: int) -> bool:
        ti, pos = self.edge_pos[e]
        return 1 < pos < self.trails[ti].length

    def lengths(self) -> tuple[int, ...]:
        return tuple(t.length for t in self.trails)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalPartition)
            and self.graph == other.graph
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"NormalPartition({len(self.trails)} trails, lengths {sorted(self.lengths(), reverse=True)})"


def _canonical(g: CubicGraph, vertices: tuple, edges: tuple, out_darts: tuple) -> Trail:
    """The trail in its canonical orientation, built from parts already
    known to be incident, without Trail's per-step checks.  Reversal flips
    every out dart except at loop steps, which keep the lower dart."""
    rv, re = vertices[::-1], edges[::-1]
    if (rv, re) < (vertices, edges):
        at = g.dart_vertex
        out_darts = tuple(d if at(d) == at(d ^ 1) else d ^ 1 for d in reversed(out_darts))
        vertices, edges = rv, re
    t = Trail.__new__(Trail)
    t.vertices, t.edges, t.out_darts = vertices, edges, out_darts
    t._key = (vertices, edges)
    return t


def partition_violations(g: CubicGraph, trails: Sequence[Trail]) -> list[Violation]:
    """All ways the trails fail to be a normal partition; empty when valid."""
    cover = [0] * g.m
    end_count = [0] * g.n
    internal_count = [0] * g.n
    for t in trails:
        for e in t.edges:
            cover[e] += 1
        end_count[t.vertices[0]] += 1
        end_count[t.vertices[-1]] += 1
        for v in t.vertices[1:-1]:
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


def _enrich(g: CubicGraph, trails: list[Trail]) -> NormalPartition:
    """Build the marked/passage/position tables; assumes the trails are
    valid and canonically oriented, and sorts them."""
    trails.sort(key=lambda t: t.key)
    marked = [-1] * g.n
    passage: list[Optional[tuple[int, int]]] = [None] * g.n
    edge_pos = [(-1, -1)] * g.m
    for ti, t in enumerate(trails):
        first, last = t.end_darts(g)
        marked[t.vertices[0]] = first
        marked[t.vertices[-1]] = last
        for i, e in enumerate(t.edges):
            edge_pos[e] = (ti, i + 1)
        for i in range(1, len(t.vertices) - 1):
            v = t.vertices[i]
            into = t.out_darts[i - 1] ^ 1
            outof = t.out_darts[i]
            passage[v] = (into, outof) if into < outof else (outof, into)
    p = NormalPartition(g, marked)
    p._trails = tuple(trails)
    p._passage = tuple(passage)
    p._edge_pos = tuple(edge_pos)
    p._key = tuple(t.key for t in trails)
    return p


def validate_normal(g: CubicGraph, trails: Sequence[Trail]) -> NormalPartition:
    """Check the normal-partition conditions and return the enriched value.

    Raises InvalidPartition carrying every violated condition with its
    witness, not just the first.
    """
    bad = partition_violations(g, trails)
    if bad:
        raise InvalidPartition(bad)
    return _enrich(g, [_canonical(g, t.vertices, t.edges, t.out_darts) for t in trails])


def trails_from_marking(g: CubicGraph, marking: Sequence[int]) -> NormalPartition:
    """Decode a total marking (vertex -> dart) into its normal partition.

    At each vertex the two unmarked slots are paired as the internal
    passage.  Raises CycleError with a witness when some edges close into a
    cycle instead of trails.
    """
    marking = tuple(marking)
    if len(marking) != g.n:
        raise ValueError("marking must assign one dart per vertex")
    succ = [0] * (2 * g.m)
    for v in range(g.n):
        d = marking[v]
        slots = g.vertex_darts[v]
        if d not in slots:
            raise ValueError(f"marked dart {d} is not at vertex {v}")
        a, b = (x for x in slots if x != d)
        succ[a] = b
        succ[b] = a
    at = g.dart_vertex
    seen = [False] * (2 * g.m)
    trails: list[Trail] = []
    for v in range(g.n):
        d = marking[v]
        if seen[d]:
            continue
        verts = [v]
        edges = []
        out = []
        cur = d
        while True:
            seen[cur] = True
            nxt = cur ^ 1
            seen[nxt] = True
            w = at(nxt)
            edges.append(cur >> 1)
            out.append(cur & ~1 if w == verts[-1] else cur)  # loops: lower dart
            verts.append(w)
            if marking[w] == nxt:
                break
            cur = succ[nxt]
        trails.append(_canonical(g, tuple(verts), tuple(edges), tuple(out)))
    if not all(seen):
        # walk one offending cycle for the error witness
        d0 = next(d for d in range(2 * g.m) if not seen[d])
        cyc = []
        cur = d0
        while True:
            cyc.append(cur >> 1)
            cur = succ[cur ^ 1]
            if cur == d0:
                break
        raise CycleError(cyc)
    assert len(trails) * 2 == g.n
    return _enrich(g, trails)


def is_odd(p: NormalPartition) -> bool:
    return all(t.length % 2 == 1 for t in p.trails)


def _odd_edge_union(p: NormalPartition) -> frozenset[int]:
    if not is_odd(p):
        raise NotOdd("partition has an even trail")
    out: set[int] = set()
    for t in p.trails:
        out.update(odd_edges(t))
    return frozenset(out)


def associated_matching(p: NormalPartition) -> frozenset[int]:
    """Union of the odd edges over all trails; a perfect matching.

    Cached on p.  Raises NotOdd when some trail has even length.
    """
    if p._matching is None:
        p._matching = _odd_edge_union(p)
    return p._matching


def is_conformal(p: NormalPartition, m: frozenset[int]) -> bool:
    """True when the odd edges of p are exactly the matching m.

    Always read off the trails, never from a cached matching, so it also
    audits partitions whose matching was set by a local switch.  Raises
    NotOdd when some trail has even length.
    """
    return _odd_edge_union(p) == frozenset(m)


def agrees_at(parts: Sequence[NormalPartition], v: int) -> bool:
    """True when two of the partitions mark the same edge at v."""
    return len({p.marked[v] >> 1 for p in parts}) < len(parts)


def agreement(parts: Sequence[NormalPartition]) -> list[int]:
    """Vertices where two of the partitions mark the same edge, ascending.

    For two partitions this is their compatibility set, for three the
    union of the pairwise sets; the partitions are pairwise compatible
    exactly when it is empty.
    """
    g = parts[0].graph
    if any(p.graph != g for p in parts[1:]):
        raise ValueError("partitions live on different graphs")
    return [v for v in range(g.n) if agrees_at(parts, v)]


def compatibility_set(p1: NormalPartition, p2: NormalPartition) -> frozenset[int]:
    """Vertices where the two partitions mark the same edge id."""
    return frozenset(agreement((p1, p2)))


def triple_set(p1: NormalPartition, p2: NormalPartition, p3: NormalPartition) -> frozenset[int]:
    """Union of the three pairwise agreement sets."""
    return frozenset(agreement((p1, p2, p3)))


@dataclass(frozen=True)
class PartitionStats:
    mu: Fraction                  # average trail length; always exactly 3
    n_of: dict[int, int]          # length -> number of trails of that length
    max_length: int

    def balance(self) -> int:
        """Sum of (3 - i) over trail lengths i; zero for normal partitions."""
        return sum((3 - i) * c for i, c in self.n_of.items())


def stats(p: NormalPartition) -> PartitionStats:
    n_of: dict[int, int] = {}
    for t in p.trails:
        n_of[t.length] = n_of.get(t.length, 0) + 1
    total = sum(i * c for i, c in n_of.items())
    count = sum(n_of.values())
    return PartitionStats(Fraction(total, count), n_of, max(n_of))


def length_profile(p: NormalPartition) -> tuple[int, ...]:
    """Trail lengths in decreasing order, e.g. (5, 3, 3, 3, 1)."""
    return tuple(sorted(p.lengths(), reverse=True))


def edge_role_audit(
    p1: NormalPartition, p2: NormalPartition, p3: NormalPartition
) -> dict[int, tuple[str, str, str]]:
    """Classify every edge's role in each of three normal partitions.

    For each edge whose endpoints all lie outside the triple agreement set,
    check that it is an internal edge in exactly one or exactly two of the
    partitions, and that in the two-internal case the edge is a length-1
    trail of the third.  Violations raise AuditViolation since that
    structure is forced for any three normal partitions.

    Returns a mapping edge -> (role in p1, role in p2, role in p3) where a
    role is "internal", "end" or "unit" (a length-1 trail).
    """
    g = p1.graph
    agree = triple_set(p1, p2, p3)
    report: dict[int, tuple[str, str, str]] = {}
    for e in range(g.m):
        roles = []
        for p in (p1, p2, p3):
            ti, pos = p.edge_pos[e]
            t = p.trails[ti]
            if t.length == 1:
                roles.append("unit")
            elif 1 < pos < t.length:
                roles.append("internal")
            else:
                roles.append("end")
        roles = tuple(roles)
        report[e] = roles
        u, v = g.endpoints[e]
        if u in agree or v in agree:
            continue
        internal = roles.count("internal")
        if internal == 1:
            continue
        if internal == 2 and roles.count("unit") == 1:
            continue
        raise AuditViolation(e, roles)
    return report
