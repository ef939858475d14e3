"""Certified compatible triples for the Petersen, flower and Goldberg graphs.

The triples for the base members (Petersen, flower k=3, Goldberg k=3) were
derived once by constrained search and are frozen as package data together
with the two inductive gadgets that extend a triple from parameter k to
k+2.  Construction is deterministic: repeated calls produce byte-identical
certificates, and regenerate_check() re-runs the derivations to confirm
the frozen data has not drifted.

Derivation constraints:
  * Petersen: each partition has trail length profile (5, 3, 3, 3, 1); the
    first compatible triple among such partitions in canonical order.
  * flower base: the marked edges at u1, v1, w1, t1, u2, v2, w2, t2 are
    pinned to the boundary table _FLOWER_EQS; additionally u1u2 must be
    an odd edge of the first partition and t1t2 an odd edge of the other
    two.  The same conditions are re-imposed after every k -> k+2 step,
    which is what makes the gadget replayable.
  * Goldberg base: first compatible triple in search order whose marks
    admit a gadget that replays through k = 9; the interface contract is
    exactly the frozen block-boundary marks.

Both families are chains of blocks, and the replay keeps its mark tables
in block ids: claw i of F_k is block i-1, with u, v, w, t at offsets 0-3,
and block j of G_k holds roles 1-8 at offsets 0-7, so a Goldberg block id
is its vertex id.  The k -> k+2 step deletes the three chaining edges
between blocks 0 and 1 and inserts two blocks after block 0.  Every later
block is stored counted from the end, as a negative list index is, so a
carried mark keeps its value and every edge but the deleted ones keeps
its distance from the end: a step only re-points the six marks that sat
on deleted edges (the family's cut table) and stamps the gadget's marks,
with the flower's constant claw-2 boundary marks, on the new blocks.  The
tables of F_k or G_k are turned into vertex ids and decoded once, in O(k)
for the whole replay.

The frozen ids are checked before the replay: a base id must lie in the
first three blocks and a gadget id in the first four, so that none wraps
around onto the graph.  The decoded marks must be edges and the triple
odd and compatible.  Any failure raises FamilyDataError.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional, Sequence

from .certificates import SCHEMA, dumps
from .graph import CubicGraph, generate
from .partition import (
    NormalPartition,
    agreement,
    is_odd,
    length_profile,
    trails_from_marking,
    validate_normal,
)

Triple = tuple[NormalPartition, NormalPartition, NormalPartition]


class FamilyDataError(ValueError):
    """The frozen family data does not give a certified compatible triple."""


_DATA_PACKAGE = "copnc.data"
_DATA_FILE = "families.json"


# ---------------------------------------------------------------------------
# Block ids
# ---------------------------------------------------------------------------


def _cut(size: int, chains) -> tuple[tuple[int, int, int], ...]:
    """The marks a k -> k+2 step re-points: (vertex, its neighbour across a
    deleted chaining edge, its neighbour across the new one) in block ids
    of the k+2 member, where the old block 1 is block 3.  chains holds the
    offsets (in block j, in block j+1) of the three chaining edges."""
    return tuple(
        row for r, s in chains for row in ((r, 3 * size + s, size + s), (3 * size + s, r, 2 * size + r))
    )


# the chains u1-u2, w1-w2, t1-t2 and 6_j-6_{j+1}, 4_j-3_{j+1}, 7_j-8_{j+1}
_FLOWER_CUT = _cut(4, ((0, 0), (2, 2), (3, 3)))
_GOLD_CUT = _cut(8, ((5, 5), (3, 2), (6, 7)))

# The pinned boundary marks at claws 1 and 2 of F_k, one table per
# partition, in block ids; -4, -2 and -1 count from the end, so they are
# u_k, w_k and t_k for every k.
_FLOWER_EQS = (
    {0: 1, 1: 2, 2: 6, 3: 7, 4: 8, 5: 4, 6: 5, 7: 3},
    {0: -4, 1: 3, 2: 1, 3: -2, 4: 5, 5: 7, 6: 10, 7: 11},
    {0: 4, 1: 0, 2: -1, 3: 1, 4: 0, 5: 6, 6: 2, 7: 5},
)

# Block size, cut table and the constant marks every step stamps with the
# gadget: the flower's are its claw-2 boundary marks, which do not depend
# on k.
_FAMILY = {
    "flower": (4, _FLOWER_CUT, tuple({v: w for v, w in eq.items() if v >= 4} for eq in _FLOWER_EQS)),
    "goldberg": (8, _GOLD_CUT, ({}, {}, {})),
}


def _flower_ids(k: int) -> list[int]:
    """The vertex id of each block id of F_k."""
    return [(b % 4) * k + b // 4 for b in range(4 * k)]


# What a derivation searches under: the vertex of each block id of the
# member with parameter k, the boundary marks pinned at every step, the
# block-id edges each partition must hold as odd edges (the flower's side
# conditions: u1u2 in the first partition, t1t2 in the other two), and the
# block ids whose marks the gadget keeps (the flower's claw 3, its claw 2
# being stamped from the pins; Goldberg blocks 1 and 2).
_DERIVE = {
    "flower": (_flower_ids, _FLOWER_EQS, (((0, 4),), ((3, 7),), ((3, 7),)), range(8, 12)),
    "goldberg": (lambda k: range(8 * k), ({}, {}, {}), ((), (), ()), range(8, 24)),
}


def _relabel(ids, tables) -> list[dict[int, int]]:
    """The tables with every id b replaced by ids[b]; a negative id counts
    from the end."""
    return [{ids[v]: ids[w] for v, w in tab.items()} for tab in tables]


def _replay(size: int, cut, k: int, base, gadget) -> list[dict[int, int]]:
    """Block-id mark tables of the member with parameter k: the base tables
    of k = 3 replayed through every k -> k+2 step, each step re-pointing the
    marks on the three deleted chaining edges (cut) and stamping the
    gadget's marks on the new blocks 1 and 2."""
    end = lambda kk, v: v if v < size else v - size * kk
    tables = [{end(3, v): end(3, w) for v, w in tab.items()} for tab in base]
    for kk in range(5, k + 1, 2):
        rows = [tuple(end(kk, v) for v in row) for row in cut]
        for tab, stamp in zip(tables, gadget):
            for v, old, new in rows:
                if tab.get(v) == old:
                    tab[v] = new
            for v, w in stamp.items():
                tab[end(kk, v)] = end(kk, w)
    n = size * k  # a stored id below 0 counts from the end, as a list index does
    return [{v % n: w % n for v, w in tab.items()} for tab in tables]


def _marks_of(g: CubicGraph, parts: Sequence[NormalPartition], ids) -> list[dict[int, int]]:
    """Block id -> block id mark tables of the partitions, where ids[b] is
    the vertex of block id b."""
    block = {v: b for b, v in enumerate(ids)}
    out = []
    for p in parts:
        tab = {}
        for b, v in enumerate(ids):
            x, y = g.endpoints[p.marked_edge(v)]
            tab[b] = block[y if x == v else x]
        out.append(tab)
    return out


# ---------------------------------------------------------------------------
# Marks on the graph
# ---------------------------------------------------------------------------


def _edge_lookup(g: CubicGraph) -> dict[tuple[int, int], int]:
    lut = {}
    for e, (a, b) in enumerate(g.endpoints):
        lut[(a, b)] = e
        lut[(b, a)] = e
    return lut


def _dart_at(g: CubicGraph, lut, v: int, w: int) -> int:
    e = lut[(v, w)]
    return 2 * e if g.endpoints[e][0] == v else 2 * e + 1


def _is_odd_edge(p: NormalPartition, e: int) -> bool:
    """Whether e is an odd edge of the trail of p that holds it; defined
    for every normal partition, odd or not."""
    return any(e in es[1::2] for _, es in p.trails)


def _side_ok(name: str, lut, k, parts: Sequence[NormalPartition]) -> bool:
    """Whether each partition of the member with parameter k holds the
    family's side edges for it as odd edges."""
    ids_of, _, odd, _ = _DERIVE[name]
    ids = ids_of(k)
    return all(_is_odd_edge(p, lut[(ids[a], ids[b])]) for p, pairs in zip(parts, odd) for a, b in pairs)


def flower_boundary_ok(k: int, parts: Sequence[NormalPartition]) -> bool:
    """Whether the triple satisfies the pinned boundary marks and the
    odd-edge side conditions at the first two claws.  Any three normal
    partitions of F_k may be given: an edge is odd when it sits at an even
    position of its trail."""
    g = generate("flower", k)
    lut = _edge_lookup(g)
    for tab, p in zip(_relabel(_flower_ids(k), _FLOWER_EQS), parts):
        if any(p.marked_edge(v) != lut[(v, w)] for v, w in tab.items()):
            return False
    return _side_ok("flower", lut, k, parts)


def _pins(g, lut, tables) -> dict[int, tuple[int, int, int]]:
    """The search pins of three vertex -> neighbour mark tables: each
    vertex all three tables mark, with its three marked darts."""
    return {
        v: tuple(_dart_at(g, lut, v, tab[v]) for tab in tables)
        for v in tables[0]
        if all(v in tab for tab in tables[1:])
    }


def _decode_marks(g: CubicGraph, tables) -> Triple:
    """The partitions marked by vertex -> neighbour tables, one per
    partition; FamilyDataError when a vertex has no mark or its mark is not
    an edge."""
    lut = _edge_lookup(g)
    parts = []
    for tab in tables:
        try:
            marking = [_dart_at(g, lut, v, tab[v]) for v in range(g.n)]
        except KeyError as exc:
            # a vertex without a mark, or a (vertex, neighbour) pair off the graph
            raise FamilyDataError(f"the replayed tables mark no edge at {exc.args[0]}") from None
        parts.append(trails_from_marking(g, marking))
    return tuple(parts)  # type: ignore[return-value]


def _triple(name: str, k: int, base, gadget) -> Triple:
    """The certified triple of the flower or Goldberg member with parameter
    k, from block-id base and gadget tables; BadParameter for a k the
    family does not take, FamilyDataError when the tables do not give a
    compatible triple of odd partitions."""
    g = generate(name, k)
    size, cut, stamp = _FAMILY[name]
    tables = _replay(size, cut, k, base, [{**s, **t} for s, t in zip(stamp, gadget)])
    if name == "flower":
        tables = _relabel(_flower_ids(k), tables)
    triple = _decode_marks(g, tables)
    _check_triple(triple)
    return triple


# ---------------------------------------------------------------------------
# Frozen data access and the public constructors
# ---------------------------------------------------------------------------


def _load_data() -> dict:
    text = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text()
    return json.loads(text)


_cache: Optional[dict] = None


def _data() -> dict:
    global _cache
    if _cache is None:
        _cache = _load_data()
    return _cache


def _json_ids(name: str, blocks: int) -> tuple[dict, dict]:
    """The block ids of the first `blocks` blocks as frozen-data keys and
    values: flower roles such as "u1" for both, Goldberg ids as strings for
    keys and as numbers for values."""
    ids = range(_FAMILY[name][0] * blocks)
    if name == "flower":
        roles = {f"{'uvwt'[b % 4]}{b // 4 + 1}": b for b in ids}
        return roles, roles
    return {str(b): b for b in ids}, dict(zip(ids, ids))


def _from_json(name: str, tabs, blocks: int) -> list[dict[int, int]]:
    keys, values = _json_ids(name, blocks)
    try:
        return [{keys[v]: values[w] for v, w in tab.items()} for tab in tabs]
    except KeyError as exc:
        raise FamilyDataError(f"the frozen {name} data holds {exc.args[0]!r}, no id of its first {blocks} blocks") from None


def _to_json(name: str, tabs) -> list[dict]:
    keys, values = ({b: s for s, b in m.items()} for m in _json_ids(name, 4))
    return [{keys[v]: values[w] for v, w in tab.items()} for tab in tabs]


def _frozen(name: str, k: int):
    """The frozen base and gadget tables of a family in block ids, each id
    checked; the gadget is read only from k = 5 on, where it is used."""
    d = _data()[name]
    gadget = _from_json(name, d["gadget"], 4) if k > 3 else [{}, {}, {}]
    return _from_json(name, d["base"], 3), gadget


def petersen_triple() -> Triple:
    """The frozen compatible triple of the Petersen graph; each partition
    has one trail of length five, three of length three and one of length
    one."""
    g = generate("petersen")
    triple = tuple(
        validate_normal(g, [(t["vertices"], t["edges"]) for t in trails])
        for trails in _data()["petersen"]["partitions"]
    )
    _check_triple(triple)
    return triple  # type: ignore[return-value]


def flower_triple(k: int) -> Triple:
    """Compatible triple of the flower graph on 4k vertices (odd k >= 3),
    satisfying the boundary marks and side conditions at every step."""
    return _triple("flower", k, *_frozen("flower", k))


def goldberg_triple(k: int) -> Triple:
    """Compatible triple of the Goldberg graph on 8k vertices (odd k >= 3)."""
    return _triple("goldberg", k, *_frozen("goldberg", k))


def _check_triple(parts: Sequence[NormalPartition]) -> None:
    if not all(is_odd(p) for p in parts):
        raise FamilyDataError("a partition of the family triple is not odd")
    if agreement(parts):
        raise FamilyDataError("the partitions of the family triple are not compatible")


# ---------------------------------------------------------------------------
# Derivations (used once to build the frozen data, and by regenerate())
# ---------------------------------------------------------------------------


def derive_petersen() -> Triple:
    """First compatible triple among profile-(5,3,3,3,1) partitions in
    canonical (trails) order; enumerate_nops gives search order, so
    the candidates are sorted here."""
    from .search import enumerate_nops

    g = generate("petersen")
    want = (5, 3, 3, 3, 1)
    cand = [p for p in sorted(enumerate_nops(g), key=lambda p: p.trails) if length_profile(p) == want]
    marks = [tuple(p.marked_edge(v) for v in range(g.n)) for p in cand]

    def ok(i: int, j: int) -> bool:
        return all(a != b for a, b in zip(marks[i], marks[j]))

    for i in range(len(cand)):
        for j in range(i + 1, len(cand)):
            if not ok(i, j):
                continue
            for k in range(j + 1, len(cand)):
                if ok(i, k) and ok(j, k):
                    return (cand[i], cand[j], cand[k])
    raise AssertionError("no profile triple on the Petersen graph")


def _derive(name: str) -> tuple[list[dict], list[dict]]:
    """Base tables for k = 3 plus the replayable gadget, both in block ids.

    Searches base triples that keep the family's boundary marks and side
    conditions, then completions on k = 5 of the base's carried marks
    that keep them too, and returns the first pair whose replay validates
    through k = 9."""
    from .search import enumerate_compatible_triples

    size, cut, stamp = _FAMILY[name]
    ids_of, eqs, _, kept = _DERIVE[name]
    g3, g5 = generate(name, 3), generate(name, 5)
    lut3, lut5 = _edge_lookup(g3), _edge_lookup(g5)
    ids3, ids5 = ids_of(3), ids_of(5)
    for base in enumerate_compatible_triples(g3, fixed=_pins(g3, lut3, _relabel(ids3, eqs))):
        if not _side_ok(name, lut3, 3, base):
            continue
        base_tables = _marks_of(g3, base, ids3)
        fixed5 = _pins(g5, lut5, _relabel(ids5, _replay(size, cut, 5, base_tables, stamp)))
        for trip5 in enumerate_compatible_triples(g5, fixed=fixed5):
            if not _side_ok(name, lut5, 5, trip5):
                continue
            gadget = [{b: tab[b] for b in kept} for tab in _marks_of(g5, trip5, ids5)]
            if _replays(name, base_tables, gadget):
                return base_tables, gadget
    raise AssertionError(f"no replayable {name} gadget found")


def _replays(name: str, base, gadget) -> bool:
    """Whether the tables give a certified triple at k = 7 and k = 9, for
    the flower one that keeps its boundary marks and side conditions."""
    for kk in (7, 9):
        try:
            parts = _triple(name, kk, base, gadget)
        except ValueError:  # FamilyDataError, or CycleError from the decode
            return False
        if name == "flower" and not flower_boundary_ok(kk, parts):
            return False
    return True


def derive_family_data() -> dict:
    """Re-run every derivation and assemble the frozen-data document; the
    Petersen partitions stay partitions, which dumps writes as their trails."""
    pet = derive_petersen()
    doc = {"schema": SCHEMA, "petersen": {"partitions": list(pet)}}
    for name in ("flower", "goldberg"):
        base, gadget = _derive(name)
        doc[name] = {"base": _to_json(name, base), "gadget": _to_json(name, gadget)}
    return doc


def family_data_text(data: Optional[dict] = None) -> str:
    """Canonical serialization used for the frozen file and drift checks."""
    if data is None:
        data = derive_family_data()
    return dumps(data)


def regenerate_check() -> bool:
    """True when re-derivation reproduces the frozen data byte for byte."""
    frozen = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text()
    return family_data_text() == frozen
