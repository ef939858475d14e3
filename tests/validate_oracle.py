"""The gate-first certificate validator: the oracle for
copnc.certificates.validate_certificate.

This is the validator the library ran before validate_normal decoded the
end marking and compared.  Every trail is checked by checked_trail, a
frozen copy of the library's former Trail constructor, its ids are
type-checked trail by trail, and partition_violations gates each
partition before its end marking is decoded.  The graph payload is always
built, even when it equals the expected graph.  Claims are read by the
library's own _claims and compared by mismatch, a frozen copy of the
library's _mismatch from before it read the associated matchings off the
checked id lists: here they come from the decoded trails.  Pairs are
compared by agreement, a frozen copy of partition.agreement from before
it ran as C-level map and compress.

decode_and_compare is a second oracle, for partition.validate_normal: the
validator of id lists that decodes the end marking and compares, as the
library ran it before validate_normal walked the given trails.
"""

import json
from typing import Optional, Sequence

from copnc.certificates import SCHEMA, CertificateError, _claims
from copnc.graph import CubicGraph, Malformed, NonCubic, color_classes
from copnc.partition import (
    InvalidPartition,
    NormalPartition,
    NotATrail,
    Violation,
    associated_matching,
    is_odd,
    partition_violations,
    trails_from_marking,
)


class MalformedTrail(ValueError):
    """A trail description violates incidence or edge distinctness."""


def checked_trail(g: CubicGraph, vertices: Sequence[int], edges: Sequence[int]) -> tuple[tuple, tuple]:
    """(vertices, edges) as tuples, once they pass the five checks of the
    library's former Trail constructor, frozen here; MalformedTrail names
    the first that fails."""
    vertices = tuple(vertices)
    edges = tuple(edges)
    if len(edges) < 1 or len(vertices) != len(edges) + 1:
        raise MalformedTrail(f"{len(vertices)} vertices with {len(edges)} edges")
    if len(set(edges)) != len(edges):
        raise MalformedTrail("repeated edge id")
    for i, e in enumerate(edges):
        if not 0 <= e < g.m:
            raise MalformedTrail(f"edge id {e} out of range")
        a, b = g.endpoints[e]
        u, v = vertices[i], vertices[i + 1]
        if (u, v) != (a, b) and (v, u) != (a, b):
            if a == b:
                raise MalformedTrail(f"loop {e} does not sit at step {i}")
            raise MalformedTrail(f"edge {e}=({a},{b}) does not join {u},{v}")
    return vertices, edges


def _ints(x) -> bool:
    """A list of ints, maybe empty; bools are not ints here."""
    return type(x) is list and {int}.issuperset(map(type, x))


def validate_normal(g: CubicGraph, trails) -> NormalPartition:
    """partition_violations as the gate, then the decode of the marking
    read off the ends of the checked trails."""
    bad = partition_violations(g, trails)
    if bad:
        raise InvalidPartition(bad)
    at = g.dart_vertices
    marked = [0] * g.n
    for vs, es in trails:
        v, d = vs[0], 2 * es[0]
        marked[v] = d if at[d] == v else d + 1
        v, d = vs[-1], 2 * es[-1] + 1
        marked[v] = d if at[d] == v else d - 1
    return trails_from_marking(g, marked)


def parse_graph(doc: dict) -> CubicGraph:
    try:
        n, edges = doc["graph"]["n"], doc["graph"]["edges"]
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc
    if type(n) is not int or type(edges) is not list or not all(_ints(e) and len(e) == 2 for e in edges):
        raise CertificateError("bad graph payload: n and the endpoints of every edge must be ints")
    if n <= 0 or 3 * n != 2 * len(edges):
        raise CertificateError(f"bad graph payload: {len(edges)} edges on {n} vertices")
    try:
        return CubicGraph(n, edges)
    except (Malformed, NonCubic) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc


def validate_certificate(doc: dict, expect_graph: Optional[CubicGraph] = None) -> dict:
    if not isinstance(doc, dict):
        raise CertificateError("certificate is not a JSON object")
    raw = doc.get("partitions")
    if not isinstance(raw, list) or not raw or not all(isinstance(p, list) for p in raw):
        raise CertificateError("partitions must be a non-empty list of trail lists")
    g = parse_graph(doc)
    claims = _claims(doc, g, len(raw))
    report: dict = {"schema": SCHEMA, "ok": True, "n": g.n, "m": g.m, "partitions": []}
    if expect_graph is not None and g != expect_graph:
        report["ok"] = False
        report["graph_mismatch"] = True
        return report
    parts: list[Optional[NormalPartition]] = []
    for i, part in enumerate(raw):
        entry: dict = {"index": i, "violations": []}
        trails = []
        for j, t in enumerate(part):
            try:
                if not (_ints(t["vertices"]) and _ints(t["edges"])):
                    raise TypeError("vertices and edges must be lists of int ids")
                trails.append(checked_trail(g, t["vertices"], t["edges"]))
            except MalformedTrail as exc:
                entry["violations"].append(f"trail {j} malformed: {exc}")
            except (KeyError, TypeError) as exc:
                raise CertificateError(f"partition {i} trail {j}: {exc}") from exc
        p = None
        if not entry["violations"]:
            try:
                p = validate_normal(g, trails)
            except InvalidPartition as exc:
                entry["violations"] = [str(v) for v in exc.violations]
        parts.append(p)
        if p is None:
            report["ok"] = False
        else:
            entry["lengths"] = sorted(p.lengths(), reverse=True)
            entry["odd"] = is_odd(p)
            if not entry["odd"]:
                report["ok"] = False
                report.setdefault("even", []).append(i)
        report["partitions"].append(entry)
    live = [p for p in parts if p is not None]
    if len(live) == len(parts) and len(live) >= 2:
        conflicts = []
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                agree = agreement((live[i], live[j]))
                if agree:
                    conflicts.append({"pair": [i, j], "agreement": agree})
        if conflicts:
            report["ok"] = False
            report["incompatible"] = conflicts
    wrong = mismatch(g, parts, report["partitions"], claims)
    if wrong:
        report["ok"] = False
        report["mismatch"] = wrong
    return report


def agreement(parts: Sequence[NormalPartition]) -> list[int]:
    """Vertices where two of the partitions mark the same edge, ascending."""
    g = parts[0].graph
    if any(p.graph != g for p in parts[1:]):
        raise ValueError("partitions live on different graphs")
    marks = [tuple(d >> 1 for d in p.marked) for p in parts]
    if len(marks) == 2:
        return [v for v, (a, b) in enumerate(zip(*marks)) if a == b]
    k = len(marks)
    return [v for v, es in enumerate(zip(*marks)) if len(set(es)) < k]


def mismatch(g: CubicGraph, parts: list[Optional[NormalPartition]], entries: list[dict], claims: dict) -> dict:
    """The claimed fields that do not hold, by name, with each associated
    matching taken from the decoded trails."""
    out: dict = {}
    if claims.get("family") is False:
        out["family"] = True
    if "profiles" in claims:
        pairs = enumerate(zip(claims["profiles"], entries))
        bad = [i for i, (want, e) in pairs if "lengths" in e and want != e["lengths"]]
        if bad:
            out["profiles"] = bad
    matchings, coloring = claims.get("matchings"), claims.get("coloring")
    if matchings is None and coloring is None:
        return out
    own = [associated_matching(p) if e.get("odd") else None for p, e in zip(parts, entries)]
    if matchings is not None:
        bad = [i for i, m in enumerate(matchings) if own[i] is not None and sorted(m) != sorted(own[i])]
        if bad:
            out["matchings"] = bad
    if coloring is not None:
        improper = [
            v for v, (a, b, c) in enumerate(g.vertex_darts)
            if len({coloring[a >> 1], coloring[b >> 1], coloring[c >> 1]}) < 3
        ]
        classes = color_classes(coloring)
        bad = [c for c in range(3) if own[c] is not None and classes[c] != own[c]]
        wrong = {}
        if improper:
            wrong["improper"] = improper
        if bad:
            wrong["classes"] = bad
        if wrong:
            out["coloring"] = wrong
    return out


def decode_and_compare(g: CubicGraph, trails) -> NormalPartition:
    """The id-list validator that decodes the marking read off the trail
    ends and compares the decode with the given trails up to reversal,
    one lookup per trail by its lower end; its partition comes decoded."""
    n, m, at = g.n, g.m, g.dart_vertices
    marked = [-1] * n
    try:  # a LookupError or ValueError: not the trails their ends decode to
        for vs, es in trails:
            v, w, e, f = vs[0], vs[-1], es[0], es[-1]
            if not (0 <= v < n and 0 <= w < n and 0 <= e < m and 0 <= f < m):
                raise LookupError
            marked[v] = 2 * e if at[2 * e] == v else 2 * e + 1
            marked[w] = 2 * f + 1 if at[2 * f + 1] == w else 2 * f
        if 2 * len(trails) != n or -1 in marked:
            raise LookupError  # some vertex is not an end exactly once
        p = trails_from_marking(g, marked)
        decoded = {t[0][0]: t for t in p.trails}
        for vs, es in trails:
            if vs[0] > vs[-1]:
                vs, es = vs[::-1], es[::-1]
            if decoded[vs[0]] != (tuple(vs), tuple(es)):
                raise LookupError
        return p
    except (LookupError, ValueError):
        pass
    given: list[tuple[tuple, tuple]] = []
    bad: list[Violation] = []
    for j, (vs, es) in enumerate(trails):
        try:
            given.append(checked_trail(g, vs, es))
        except MalformedTrail as exc:
            bad.append(NotATrail(j, str(exc)))
    raise InvalidPartition(bad or partition_violations(g, given))


def partition_outcome(validate, g, trails) -> str:
    """What a validator of id lists answers, as text: the marking and the
    decoded trails of the partition it returns, or the type and message of
    what it raised."""
    try:
        p = validate(g, trails)
        return repr((p.marked, list(p.trails)))
    except Exception as exc:  # compared, not handled
        return f"{type(exc).__name__}: {exc}"


def outcome(validate, doc, expect_graph=None) -> str:
    """What validate answers on doc, as text: the canonical JSON of its
    report, or the type and message of what it raised."""
    try:
        return json.dumps(validate(doc, expect_graph), sort_keys=True)
    except Exception as exc:  # compared, not handled
        return f"{type(exc).__name__}: {exc}"
