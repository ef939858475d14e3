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
    pinned to the boundary table in _flower_eqs; additionally u1u2 must be
    an odd edge of the first partition and t1t2 an odd edge of the other
    two.  The same conditions are re-imposed after every k -> k+2 step,
    which is what makes the gadget replayable.
  * Goldberg base: first compatible triple in search order whose marks
    admit a gadget that replays through k = 9; the interface contract is
    exactly the frozen block-boundary marks.

The k -> k+2 step deletes the three chaining edges between the first two
claws (flower) or blocks (Goldberg), inserts the new middle section, keeps
every carried mark, re-points the six marks that sat on deleted edges to
their replacement edges, and stamps the frozen gadget marks onto the new
vertices.

The replay keeps its tables in end coordinates: claw 1 and block 0 keep
their positions, and every later claw or block is stored counted from
the end, as a negative list index is.  The step inserts its two claws or
blocks right after the first one, so a stored mark keeps its value: a
step only re-points the six marks and stamps the new section, and the
tables of F_k or G_k are turned back into vertex ids and decoded once, in
O(k) for the whole replay.  A step moves no mark off an edge except the
six it re-points, since every other edge keeps its distance from the end.
The final tables are still checked: every mark must be an edge and the
decoded triple odd and compatible, else FamilyDataError.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional, Sequence

from .certificates import dumps
from .graph import BadParameter, CubicGraph, generate
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
# Role coordinates
# ---------------------------------------------------------------------------


def _flower_vid(k: int, role: tuple[str, int]) -> int:
    x, i = role
    return {"u": 0, "v": 1, "w": 2, "t": 3}[x] * k + i - 1


def _edge_lookup(g: CubicGraph) -> dict[tuple[int, int], int]:
    lut = {}
    for e, (a, b) in enumerate(g.endpoints):
        lut[(a, b)] = e
        lut[(b, a)] = e
    return lut


def _dart_at(g: CubicGraph, lut, v: int, w: int) -> int:
    e = lut[(v, w)]
    return 2 * e if g.endpoints[e][0] == v else 2 * e + 1


def _flower_eqs(k: int) -> list[dict[tuple[str, int], tuple[str, int]]]:
    """Pinned boundary marks at the first two claws, one table per
    partition; the (u,k), (w,k), (t,k) entries wrap around the rings."""
    return [
        {
            ("u", 1): ("v", 1), ("v", 1): ("w", 1), ("w", 1): ("w", 2), ("t", 1): ("t", 2),
            ("u", 2): ("u", 3), ("v", 2): ("u", 2), ("w", 2): ("v", 2), ("t", 2): ("t", 1),
        },
        {
            ("u", 1): ("u", k), ("v", 1): ("t", 1), ("w", 1): ("v", 1), ("t", 1): ("w", k),
            ("u", 2): ("v", 2), ("v", 2): ("t", 2), ("w", 2): ("w", 3), ("t", 2): ("t", 3),
        },
        {
            ("u", 1): ("u", 2), ("v", 1): ("u", 1), ("w", 1): ("t", k), ("t", 1): ("v", 1),
            ("u", 2): ("u", 1), ("v", 2): ("w", 2), ("w", 2): ("w", 1), ("t", 2): ("v", 2),
        },
    ]


def _is_odd_edge(p: NormalPartition, e: int) -> bool:
    """Whether e is an odd edge of the trail of p that holds it; defined
    for every normal partition, odd or not."""
    return any(e in es[1::2] for _, es in p.trails)


def _flower_side_ok(g, lut, k, parts: Sequence[NormalPartition]) -> bool:
    e_u12 = lut[(_flower_vid(k, ("u", 1)), _flower_vid(k, ("u", 2)))]
    e_t12 = lut[(_flower_vid(k, ("t", 1)), _flower_vid(k, ("t", 2)))]
    return _is_odd_edge(parts[0], e_u12) and _is_odd_edge(parts[1], e_t12) and _is_odd_edge(parts[2], e_t12)


def flower_boundary_ok(k: int, parts: Sequence[NormalPartition]) -> bool:
    """Whether the triple satisfies the pinned boundary marks and the
    odd-edge side conditions at the first two claws.  Any three normal
    partitions of F_k may be given: an edge is odd when it sits at an even
    position of its trail."""
    g = generate("flower", k)
    lut = _edge_lookup(g)
    for tab, p in zip(_flower_vertex_tables(k, _flower_eqs(k)), parts):
        if any(p.marked_edge(v) != lut[(v, w)] for v, w in tab.items()):
            return False
    return _flower_side_ok(g, lut, k, parts)


def _pins(g, lut, tables) -> dict[int, tuple[int, int, int]]:
    """The search pins of three vertex -> neighbour mark tables: each
    vertex all three tables mark, with its three marked darts."""
    return {
        v: tuple(_dart_at(g, lut, v, tab[v]) for tab in tables)
        for v in tables[0]
        if all(v in tab for tab in tables[1:])
    }


def _flower_end_role(k: int, role: tuple[str, int]) -> tuple[str, int]:
    """A role of F_k in end coordinates: claw 1 stays 1, claw i >= 2 is
    stored as i - k - 1, so claw k is -1 and claw 2 is 1 - k."""
    x, i = role
    return role if i == 1 else (x, i - k - 1)


def _flower_role(k: int, role: tuple[str, int]) -> tuple[str, int]:
    """The role of F_k that end coordinates stand for."""
    x, c = role
    return role if c == 1 else (x, c + k + 1)


def _flower_tables_for(k: int, base_tables, gadget_tables):
    """Role tables of F_k: the base tables of F_3 replayed through every
    k -> k+2 step.  A step deletes the chaining edges x1-x2 (x = u, w, t):
    a mark from claw 1 to the old claw 2 re-points to the new claw 2, and
    one from the old claw 2 to claw 1 to the new claw 3.  Then the boundary
    marks of claw 2 (_flower_eqs) and the gadget's (claw 3) are stamped."""
    tables = [
        {_flower_end_role(3, r): _flower_end_role(3, s) for r, s in tab.items()}
        for tab in base_tables
    ]
    for kk in range(5, k + 1, 2):
        old2, new2, new3 = 3 - kk, 1 - kk, 2 - kk  # claws 4, 2 and 3 of F_kk
        for tab, eq, gadget in zip(tables, _flower_eqs(kk), gadget_tables):
            for x in "uwt":
                if tab.get((x, 1)) == (x, old2):
                    tab[(x, 1)] = (x, new2)
                if tab.get((x, old2)) == (x, 1):
                    tab[(x, old2)] = (x, new3)
            stamp = {(x, 2): eq[(x, 2)] for x in "uvwt"}
            stamp.update(gadget)
            for r, s in stamp.items():
                tab[_flower_end_role(kk, r)] = _flower_end_role(kk, s)
    return [{_flower_role(k, r): _flower_role(k, s) for r, s in tab.items()} for tab in tables]


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


def _flower_vertex_tables(k: int, tables) -> list[dict[int, int]]:
    """Role tables of F_k as vertex -> neighbour mark tables."""
    vid = {(x, i): _flower_vid(k, (x, i)) for x in "uvwt" for i in range(1, k + 1)}
    try:
        return [{vid[r]: vid[s] for r, s in tab.items()} for tab in tables]
    except KeyError as exc:
        raise FamilyDataError(f"flower:{k} has no role {exc.args[0]}") from None


# ---------------------------------------------------------------------------
# Goldberg coordinates: vertex ids; block 0 is ids 0..7 for every parameter
# ---------------------------------------------------------------------------


def _gold_b(j: int, i: int) -> int:
    return 8 * j + i - 1


# The marks a k -> k+2 step re-points: (vertex, its neighbour across a
# deleted chaining edge, its neighbour across the new one), in ids of
# G_{k+2}, where the old block 1 is block 3
_GOLD_CUT = (
    (_gold_b(0, 6), _gold_b(3, 6), _gold_b(1, 6)),
    (_gold_b(3, 6), _gold_b(0, 6), _gold_b(2, 6)),
    (_gold_b(0, 4), _gold_b(3, 3), _gold_b(1, 3)),
    (_gold_b(3, 3), _gold_b(0, 4), _gold_b(2, 4)),
    (_gold_b(0, 7), _gold_b(3, 8), _gold_b(1, 8)),
    (_gold_b(3, 8), _gold_b(0, 7), _gold_b(2, 7)),
)


def _gold_end(k: int, v: int) -> int:
    """A vertex id of G_k in end coordinates: block 0 stays, every later
    id is stored as v - 8k, so block k-1 is ids -8..-1."""
    return v if v < 8 else v - 8 * k


def _gold_marks_for(k: int, base_marks, gadget_marks):
    """Vertex -> neighbour marks of G_k: the base marks of G_3 replayed
    through every k -> k+2 step, each step re-pointing the marks on the
    three deleted chaining edges (_GOLD_CUT) and stamping the gadget's
    marks on the new blocks 1 and 2."""
    marks = [{_gold_end(3, v): _gold_end(3, w) for v, w in tab.items()} for tab in base_marks]
    for kk in range(5, k + 1, 2):
        cut = [tuple(_gold_end(kk, v) for v in row) for row in _GOLD_CUT]
        for tab, gadget in zip(marks, gadget_marks):
            for v, old, new in cut:
                if tab.get(v) == old:
                    tab[v] = new
            for v, w in gadget.items():
                tab[_gold_end(kk, v)] = _gold_end(kk, w)
    n = 8 * k  # a stored id below 0 counts from the end, as a list index does
    return [{v % n: w % n for v, w in tab.items()} for tab in marks]


def _gold_marks_of(g: CubicGraph, parts: Sequence[NormalPartition]):
    out = []
    for p in parts:
        tab = {}
        for v in range(g.n):
            e = p.marked_edge(v)
            a, b = g.endpoints[e]
            tab[v] = b if a == v else a
        out.append(tab)
    return out


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


def _role_from_str(s: str) -> tuple[str, int]:
    return (s[0], int(s[1:]))


def _tables_from_json(tabs) -> list[dict]:
    return [
        {_role_from_str(r): _role_from_str(nr) for r, nr in tab.items()}
        for tab in tabs
    ]


def _tables_to_json(tabs) -> list[dict]:
    return [
        {f"{x}{i}": f"{y}{j}" for (x, i), (y, j) in sorted(tab.items())}
        for tab in tabs
    ]


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
    if k < 3 or k % 2 == 0:
        raise BadParameter(f"flower parameter must be odd and >= 3, got {k}")
    d = _data()["flower"]
    tables = _flower_tables_for(k, _tables_from_json(d["base"]), _tables_from_json(d["gadget"]))
    triple = _decode_marks(generate("flower", k), _flower_vertex_tables(k, tables))
    _check_triple(triple)
    return triple


def goldberg_triple(k: int) -> Triple:
    """Compatible triple of the Goldberg graph on 8k vertices (odd k >= 3)."""
    if k < 3 or k % 2 == 0:
        raise BadParameter(f"goldberg parameter must be odd and >= 3, got {k}")
    d = _data()["goldberg"]
    base = [{int(v): w for v, w in tab.items()} for tab in d["base"]]
    gadget = [{int(v): w for v, w in tab.items()} for tab in d["gadget"]]
    triple = _decode_marks(generate("goldberg", k), _gold_marks_for(k, base, gadget))
    _check_triple(triple)
    return triple


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


def derive_flower() -> tuple[list[dict], list[dict]]:
    """Base tables for k=3 plus the replayable gadget, both as role maps.

    Searches base triples pinned to the boundary table, then gadget
    completions on k=5, and keeps the first pair whose replay validates
    through k=9."""
    from .search import enumerate_compatible_triples

    g3 = generate("flower", 3)
    lut3 = _edge_lookup(g3)
    base_fixed = _pins(g3, lut3, _flower_vertex_tables(3, _flower_eqs(3)))
    all_roles3 = [(x, i) for x in "uvwt" for i in range(1, 4)]

    def role_tables(g, k, parts, roles):
        rev = {_flower_vid(k, (x, i)): (x, i) for x in "uvwt" for i in range(1, k + 1)}
        out = []
        for p in parts:
            tab = {}
            for role in roles:
                v = _flower_vid(k, role)
                e = p.marked_edge(v)
                a, b = g.endpoints[e]
                tab[role] = rev[b if a == v else a]
            out.append(tab)
        return out

    g5 = generate("flower", 5)
    lut5 = _edge_lookup(g5)
    for base in enumerate_compatible_triples(g3, fixed=base_fixed):
        if not _flower_side_ok(g3, lut3, 3, base):
            continue
        base_tables = role_tables(g3, 3, base, all_roles3)
        carried = _flower_tables_for(5, base_tables, [{}, {}, {}])
        fixed5 = _pins(g5, lut5, _flower_vertex_tables(5, carried))
        for trip5 in enumerate_compatible_triples(g5, fixed=fixed5):
            if not _flower_side_ok(g5, lut5, 5, trip5):
                continue
            gadget = role_tables(g5, 5, trip5, [("u", 3), ("v", 3), ("w", 3), ("t", 3)])
            if _flower_replays(base_tables, gadget):
                return base_tables, gadget
    raise AssertionError("no replayable flower gadget found")


def _flower_replays(base_tables, gadget) -> bool:
    for kk in (7, 9):
        try:
            tables = _flower_tables_for(kk, base_tables, gadget)
            parts = _decode_marks(generate("flower", kk), _flower_vertex_tables(kk, tables))
        except Exception:
            return False
        if not all(is_odd(p) for p in parts) or agreement(parts):
            return False
        if not flower_boundary_ok(kk, parts):
            return False
    return True


def derive_goldberg() -> tuple[list[dict], list[dict]]:
    """Base marks on the k=3 graph plus the 16-vertex gadget, found as the
    first (base, completion) pair in search order that replays through
    k=9."""
    from .search import enumerate_compatible_triples

    g3 = generate("goldberg", 3)
    g5 = generate("goldberg", 5)
    lut5 = _edge_lookup(g5)
    for base in enumerate_compatible_triples(g3):
        base_marks = _gold_marks_of(g3, base)
        carried = _gold_marks_for(5, base_marks, [{}, {}, {}])
        for trip5 in enumerate_compatible_triples(g5, fixed=_pins(g5, lut5, carried)):
            m5 = _gold_marks_of(g5, trip5)
            gadget = [{v: tab[v] for v in range(8, 24)} for tab in m5]
            if _gold_replays(base_marks, gadget):
                return base_marks, gadget
    raise AssertionError("no replayable goldberg gadget found")


def _gold_replays(base_marks, gadget) -> bool:
    for kk in (7, 9):
        try:
            parts = _decode_marks(generate("goldberg", kk), _gold_marks_for(kk, base_marks, gadget))
        except Exception:
            return False
        if not all(is_odd(p) for p in parts) or agreement(parts):
            return False
    return True


def derive_family_data() -> dict:
    """Re-run every derivation and assemble the frozen-data document; the
    Petersen partitions stay partitions, which dumps writes as their trails."""
    pet = derive_petersen()
    fl_base, fl_gadget = derive_flower()
    go_base, go_gadget = derive_goldberg()
    return {
        "schema": "copnc/1",
        "petersen": {"partitions": list(pet)},
        "flower": {
            "base": _tables_to_json(fl_base),
            "gadget": _tables_to_json(fl_gadget),
        },
        "goldberg": {
            "base": [{str(v): w for v, w in sorted(tab.items())} for tab in go_base],
            "gadget": [{str(v): w for v, w in sorted(tab.items())} for tab in go_gadget],
        },
    }


def family_data_text(data: Optional[dict] = None) -> str:
    """Canonical serialization used for the frozen file and drift checks."""
    if data is None:
        data = derive_family_data()
    return dumps(data)


def regenerate_check() -> bool:
    """True when re-derivation reproduces the frozen data byte for byte."""
    frozen = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text()
    return family_data_text() == frozen
