"""The gate-first certificate validator: the oracle for
copnc.certificates.validate_certificate.

This is the validator the library ran before validate_normal decoded the
end marking and compared.  Every trail is built as a checked Trail, its
ids are type-checked trail by trail, and partition_violations gates each
partition before its end marking is decoded.  The graph payload is always
built, even when it equals the expected graph.  Claims are read and
compared by the library's own _claims and _mismatch, which this change
leaves alone.
"""

import json
from typing import Optional

from copnc.certificates import SCHEMA, CertificateError, _claims, _mismatch
from copnc.graph import CubicGraph, Malformed, NonCubic
from copnc.partition import (
    InvalidPartition,
    MalformedTrail,
    NormalPartition,
    Trail,
    agreement,
    is_odd,
    partition_violations,
    trails_from_marking,
)


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
    for t in trails:
        v, d = t.vertices[0], 2 * t.edges[0]
        marked[v] = d if at[d] == v else d + 1
        v, d = t.vertices[-1], 2 * t.edges[-1] + 1
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
                trails.append(Trail(g, t["vertices"], t["edges"]))
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
    mismatch = _mismatch(g, parts, report["partitions"], claims)
    if mismatch:
        report["ok"] = False
        report["mismatch"] = mismatch
    return report


def outcome(validate, doc, expect_graph=None) -> str:
    """What validate answers on doc, as text: the canonical JSON of its
    report, or the type and message of what it raised."""
    try:
        return json.dumps(validate(doc, expect_graph), sort_keys=True)
    except Exception as exc:  # compared, not handled
        return f"{type(exc).__name__}: {exc}"
