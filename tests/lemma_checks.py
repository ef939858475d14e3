"""Two lemmas of the paper, as checks the tests run: the program never
calls them.

edge_role_audit checks the edge-role structure forced on any three normal
partitions: away from their agreement set every edge is internal to one
or two of them, and when to two, a trail of length 1 in the third.
complete_system searches the normal odd partitions of a small graph for
k of them that mark all three edges at every vertex.
"""

from typing import Optional

from copnc.graph import CubicGraph
from copnc.partition import NormalPartition, agreement
from copnc.search import enumerate_nops
from copnc.switching import CapExceeded


class AuditViolation(AssertionError):
    """The edge-role structure of a triple is broken: an implementation bug."""

    def __init__(self, edge: int, roles: tuple[str, str, str]):
        self.edge = edge
        self.roles = roles
        super().__init__(f"edge {edge} has roles {roles}")


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
    agree = set(agreement((p1, p2, p3)))
    role_of = []
    for p in (p1, p2, p3):
        role = [""] * g.m
        for _, es in p.trails:
            last = len(es) - 1
            for i, e in enumerate(es):
                role[e] = "unit" if last == 0 else "internal" if 0 < i < last else "end"
        role_of.append(role)
    report: dict[int, tuple[str, str, str]] = {}
    for e, roles in enumerate(zip(*role_of)):
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


def complete_system(
    g: CubicGraph, k: int, cap: int = 10**6
) -> Optional[list[NormalPartition]]:
    """k normal odd partitions such that every vertex sees three of them
    marking three distinct edges, or None when no such system exists.

    At a cubic vertex three pairwise distinct marked edges must be all
    three incident edges, so the condition is: every slot edge of every
    vertex is marked by some member.  Tiny graphs only; the candidate pool
    is the full set of normal odd partitions in canonical (trail key)
    order, so a k larger than the pool gets None at once.  The marks are
    counted as partitions are chosen and dropped, so a search node costs
    O(n).
    """
    if k < 3:
        raise ValueError("a complete system has order at least 3")
    if g.has_loop():
        return None
    pool = sorted(enumerate_nops(g, cap=cap), key=lambda p: p.trails)
    # with no loop a vertex's three darts carry its three edges: cover[d]
    # counts the chosen partitions marking dart d, missing[v] the darts of
    # v none marks, and by_missing[x] the vertices missing x darts
    cover = [0] * (2 * g.m)
    missing = [3] * g.n
    by_missing = [0, 0, 0, g.n]
    nodes = 0
    chosen: list[NormalPartition] = []

    def count(p: NormalPartition, step: int) -> None:
        """Add p's marks to the counts (step 1) or take them out (step -1)."""
        for v, d in enumerate(p.marked):
            was = cover[d]
            cover[d] = was + step
            if not was or not cover[d]:  # d turned covered or uncovered
                x = missing[v]
                missing[v] = x - step
                by_missing[x] -= 1
                by_missing[x - step] += 1

    def verdict() -> Optional[bool]:
        """Visit the search node of chosen: True when it is a complete
        system, False when it is a dead end, None when it branches."""
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"complete-system search exceeded {cap} nodes")
        if len(chosen) == k:
            return by_missing[0] == g.n
        # prune: remaining picks must be able to finish the coverage
        if any(by_missing[k - len(chosen) + 1 :]):
            return False
        return None

    # the search runs on an explicit stack: nexts holds, for each open node
    # on the path (the root, then one per chosen partition), the next pool
    # index it tries, in the order of the recursion it replaces; a node is
    # closed once fewer members are left to try than it still has to pick
    if verdict() is not None:  # the root always branches, as k >= 3
        return None
    nexts = [0]
    while nexts:
        i = nexts[-1]
        if len(pool) - i < k - len(chosen):
            nexts.pop()
            if chosen:
                count(chosen.pop(), -1)
            continue
        nexts[-1] = i + 1
        chosen.append(pool[i])
        count(pool[i], 1)
        hit = verdict()
        if hit:
            return chosen
        if hit is None:
            nexts.append(i + 1)
        else:
            count(chosen.pop(), -1)
    return None
