"""JSON certificates for graphs and partition families.

Schema tag "copnc/1".  A certificate is:

    {
      "schema": "copnc/1",
      "graph": {"n": <int>, "edges": [[u, v], ...]},
      "partitions": [ [ {"vertices": [...], "edges": [...]}, ... ], ... ]
    }

Edge ids are positions in the edges array.  Serialization is canonical
(sorted keys, fixed separators, trailing newline) so identical structures
produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .graph import CubicGraph, Malformed, NonCubic
from .partition import InvalidPartition, MalformedTrail, NormalPartition, Trail, agreement, is_odd, validate_normal

SCHEMA = "copnc/1"


class CertificateError(ValueError):
    """Structurally unusable certificate document."""


def graph_payload(g: CubicGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.endpoints]}


def certificate(
    g: CubicGraph,
    partitions: Sequence[NormalPartition],
    extra: Optional[dict] = None,
) -> dict:
    doc = {
        "schema": SCHEMA,
        "graph": graph_payload(g),
        "partitions": [
            [
                {"vertices": list(t.vertices), "edges": list(t.edges)}
                for t in p.trails
            ]
            for p in partitions
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def parse_graph(doc: dict) -> CubicGraph:
    """The certificate's graph; CertificateError unless it is cubic.  The
    size of a cubic graph, n > 0 and 3n = 2m, is checked before anything is
    built for its vertices."""
    try:
        n = int(doc["graph"]["n"])
        edges = [(int(u), int(v)) for u, v in doc["graph"]["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc
    if n <= 0 or 3 * n != 2 * len(edges):
        raise CertificateError(f"bad graph payload: {len(edges)} edges on {n} vertices")
    try:
        return CubicGraph(n, edges)
    except (Malformed, NonCubic) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc


def validate_certificate(doc: dict, expect_graph: Optional[CubicGraph] = None) -> dict:
    """Full verification: trails form normal odd partitions; with two or
    more partitions they must be pairwise compatible.

    Returns a report dict with "ok" plus per-partition diagnostics; never
    raises for semantic failures.  The entry of each normal partition
    carries its "lengths" and whether it is "odd"; the indices of the even
    ones are listed under "even".  A document of the wrong shape raises
    CertificateError: not an object, a graph payload that is not a cubic
    graph, or partitions that are not a non-empty list of lists."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate is not a JSON object")
    raw = doc.get("partitions")
    if not isinstance(raw, list) or not raw or not all(isinstance(p, list) for p in raw):
        raise CertificateError("partitions must be a non-empty list of trail lists")
    g = parse_graph(doc)
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
    return report
