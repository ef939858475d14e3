"""The keyed enumeration: the oracle for copnc.search's one-partition pools.

This is the enumeration the library ran before its pools kept the search
order.  It decodes every marking the one-partition search yields and
keeps the first partition per trail key; the library then returned them
sorted by key.  So it decodes every marking, duplicates included, where
the library's pools now decode none.
"""

from copnc.graph import CubicGraph
from copnc.partition import NormalPartition, trails_from_marking
from copnc.search import _Search


def first_by_key(g: CubicGraph, odd: bool, allowed=None) -> dict[tuple, NormalPartition]:
    """Trails -> the first partition the search yields with those trails,
    decoded, in the order the search yields them: the normal partitions
    (odd ones only when odd is set) the table allowed admits."""
    out: dict[tuple, NormalPartition] = {}
    for (marking,) in _Search(g, 1, odd=odd, allowed=allowed).solutions():
        p = trails_from_marking(g, marking)
        out.setdefault(p.trails, p)
    return out
