"""The quadratic family replay: the oracle for copnc.families' replay.

This is the replay the library ran before it kept its tables in block ids
counted from the end.  At each k -> k+2 step the flower replay renames
every role of every table and tests every mark against the full role edge
set of F_{k+2}; the Goldberg replay builds G_{k+2} and its edge lookup and
shifts every mark.  Both are O(k) per step and O(k^2) up to k.

flower_replay and goldberg_replay yield the tables of every odd
parameter 3, 5, ..., k_max from one pass: role tables {(x, i): (y, j)}
for the flower, vertex -> neighbour dicts for Goldberg.  The flower's
claw-2 boundary marks are a frozen copy here, not the library's.
"""

from copnc.graph import generate

# The boundary marks at claw 2 of every F_k, one table per partition; each
# flower step stamps them on the new claw 2.
_FLOWER_CLAW2 = (
    {("u", 2): ("u", 3), ("v", 2): ("u", 2), ("w", 2): ("v", 2), ("t", 2): ("t", 1)},
    {("u", 2): ("v", 2), ("v", 2): ("t", 2), ("w", 2): ("w", 3), ("t", 2): ("t", 3)},
    {("u", 2): ("u", 1), ("v", 2): ("w", 2), ("w", 2): ("w", 1), ("t", 2): ("v", 2)},
)


def _flower_role_edges(k: int) -> set[frozenset]:
    es = set()
    for i in range(1, k + 1):
        es.add(frozenset((("u", i), ("u", i % k + 1))))
        es.add(frozenset((("v", i), ("u", i))))
        es.add(frozenset((("v", i), ("w", i))))
        es.add(frozenset((("v", i), ("t", i))))
    for i in range(1, k):
        es.add(frozenset((("w", i), ("w", i + 1))))
        es.add(frozenset((("t", i), ("t", i + 1))))
    es.add(frozenset((("w", k), ("t", 1))))
    es.add(frozenset((("t", k), ("w", 1))))
    return es


def _flower_rename(role: tuple[str, int]) -> tuple[str, int]:
    x, i = role
    return (x, 1) if i == 1 else (x, i + 2)


def _flower_extend_tables(tables, k_new: int):
    """Carry per-partition role marks from F_{k_new-2} into F_{k_new}:
    rename indexes, re-point the six marks that lived on deleted edges."""
    edges = _flower_role_edges(k_new)
    out = []
    for tab in tables:
        new = {}
        for role, nrole in tab.items():
            r2, n2 = _flower_rename(role), _flower_rename(nrole)
            if frozenset((r2, n2)) in edges:
                new[r2] = n2
            else:
                x, i = r2
                assert i in (1, 4), (r2, n2)
                new[r2] = (x, 2) if i == 1 else (x, 3)
        out.append(new)
    return out


def flower_replay(base_tables, gadget_tables, k_max: int):
    """(k, role tables of F_k) for k = 3, 5, ..., k_max."""
    tables = [dict(t) for t in base_tables]
    yield 3, tables
    for kk in range(5, k_max + 1, 2):
        tables = _flower_extend_tables(tables, kk)
        for p_idx in range(3):
            tables[p_idx].update(_FLOWER_CLAW2[p_idx])
            tables[p_idx].update(gadget_tables[p_idx])
        yield kk, tables


def _gold_b(j: int, i: int) -> int:
    return 8 * j + i - 1


def _gold_carry(k_new: int, marks_old):
    """Carry per-partition vertex->neighbor marks from G_{k_new-2} into
    G_{k_new}: old blocks j >= 1 shift by one double-block, marks on the
    three deleted chaining edges re-point to their replacements."""
    gk = generate("goldberg", k_new)
    lut = set()
    for a, b in gk.endpoints:
        lut.add((a, b))
        lut.add((b, a))
    shift = lambda v: v if v < 8 else v + 16
    repoint = {
        _gold_b(0, 6): _gold_b(1, 6), _gold_b(3, 6): _gold_b(2, 6),
        _gold_b(0, 4): _gold_b(1, 3), _gold_b(3, 3): _gold_b(2, 4),
        _gold_b(0, 7): _gold_b(1, 8), _gold_b(3, 8): _gold_b(2, 7),
    }
    out = []
    for tab in marks_old:
        new = {}
        for v, w in tab.items():
            v2, w2 = shift(v), shift(w)
            new[v2] = w2 if (v2, w2) in lut else repoint[v2]
        out.append(new)
    return out


def goldberg_replay(base_marks, gadget_marks, k_max: int):
    """(k, vertex -> neighbour marks of G_k) for k = 3, 5, ..., k_max."""
    marks = [dict(t) for t in base_marks]
    yield 3, marks
    for kk in range(5, k_max + 1, 2):
        marks = _gold_carry(kk, marks)
        for p_idx in range(3):
            marks[p_idx].update(gadget_marks[p_idx])
        yield kk, marks
