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

validate_certificate checks a partition's trails by walking each one
under the marking read off their ends (see validate_normal), and reads
lengths, oddness and associated matchings off the id lists it has just
checked, so a valid certificate is validated without one decode; only a
document that fails gets its trails built and diagnosed one by one.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

from .graph import BadParameter, CubicGraph, Malformed, NonCubic, color_classes, generate, parse_spec
from .partition import InvalidPartition, NormalPartition, agreement, validate_normal

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
                {"vertices": list(vs), "edges": list(es)}
                for vs, es in p.trails
            ]
            for p in partitions
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def dumps(doc: dict) -> str:
    """The canonical text of a JSON document: byte for byte
    json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) and a
    newline.  json writes any indented document with its pure-Python
    encoder; here keys and scalars go through the C encoder, a list of
    ints is joined in one go, and a list of int lists is one compact C
    encode, re-indented.  A NormalPartition in the document is written
    straight from its decoded trails, as the list of trail objects that
    certificate() makes of it, and a CubicGraph straight from its
    endpoints, as graph_payload() makes it, each from one compact C
    encode as well.  Keys must be strings."""
    return _text(doc, "") + "\n"


_encode = json.JSONEncoder(sort_keys=True).encode
# only ever given ints in lists and tuples, which cannot hold themselves
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_INT = {int}
_LIST = {list}
_PAIR = {2}
_SECOND = itemgetter(1)
_ODD_EDGES = itemgetter(slice(1, None, 2))
_COLORS = {0, 1, 2}
_COLOR_BIT = (1, 2, 4)


def _int_lists(x) -> bool:
    """A list of non-empty lists of ints; bools are not ints here."""
    return set(map(type, x)) == _LIST and all(x) and set(map(type, chain.from_iterable(x))) == _INT


def _ints(x) -> bool:
    """A list of ints, maybe empty; bools are not ints here."""
    return type(x) is list and _INT.issuperset(map(type, x))


# Both writers below take one compact C encode and indent it by str.replace.
# After the comma replace every comma ends a line; the commas that do not
# sit between two ints are rewritten whole, before it or after it.


def _int_lists_text(x, pad: str) -> str:
    """A list of non-empty int lists as _text writes it."""
    a, c = "\n" + pad + " ", "\n" + pad + "  "
    s = _compact(x)[2:-2].replace(",", "," + c).replace("]," + c + "[", a + "]," + a + "[" + c)
    return "[" + a + "[" + c + s + a + "]\n" + pad + "]"


def _partition_text(p: NormalPartition, pad: str) -> str:
    """p's trails as _text writes the trail objects {"edges": [...],
    "vertices": [...]} of certificate(): "]],[[" ends a trail and "],["
    its edges, each marked by one character before the commas are
    rewritten."""
    if not p.trails:
        return "[]"
    a, b, c = "\n" + pad + " ", "\n" + pad + "  ", "\n" + pad + "   "
    s = _compact([(es, vs) for vs, es in p.trails])[3:-3]
    s = s.replace("]],[[", "|").replace("],[", ";").replace(",", "," + c)
    s = s.replace(";", b + "]," + b + '"vertices": [' + c)
    s = s.replace("|", b + "]" + a + "}," + a + "{" + b + '"edges": [' + c)
    return "[" + a + "{" + b + '"edges": [' + c + s + b + "]" + a + "}\n" + pad + "]"


def _text(x, pad: str) -> str:
    """x written as json's indent=1 writes it at the depth of pad."""
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + " "
        sep = ",\n" + inner
        if set(map(type, x)) == _INT:
            body = sep.join(map(str, x))
        elif _int_lists(x):
            return _int_lists_text(x, pad)
        else:
            body = sep.join([_text(v, inner) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        if not all(isinstance(k, str) for k in x):
            raise TypeError("keys must be str")
        inner = pad + " "
        body = f",\n{inner}".join([f"{_encode(k)}: {_text(v, inner)}" for k, v in sorted(x.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(x, NormalPartition):
        return _partition_text(x, pad)
    if isinstance(x, CubicGraph):
        inner = pad + " "
        edges = _int_lists_text(x.endpoints, inner) if x.endpoints else "[]"
        return f'{{\n{inner}"edges": {edges},\n{inner}"n": {x.n}\n{pad}}}'
    return _encode(x)


def parse_graph(doc: dict, known: Optional[CubicGraph] = None) -> CubicGraph:
    """The certificate's graph; CertificateError unless it is cubic.  n and
    the endpoints are ints, as trail ids are: no float, bool or string
    stands for one.  When the payload has exactly the n and endpoints of
    known, known itself is returned.  The size of a cubic graph, n > 0
    and 3n = 2m, is checked before anything is built for its vertices."""
    try:
        n, edges = doc["graph"]["n"], doc["graph"]["edges"]
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc
    if not (
        type(n) is int
        and type(edges) is list
        and _LIST.issuperset(map(type, edges))
        and _INT.issuperset(map(type, chain.from_iterable(edges)))
        and _PAIR.issuperset(map(len, edges))
    ):
        raise CertificateError("bad graph payload: n and the endpoints of every edge must be ints")
    # checked as ints first: True == 1, so a bool would compare equal
    if known is not None and n == known.n and tuple(map(tuple, edges)) == known.endpoints:
        return known
    if n <= 0 or 3 * n != 2 * len(edges):
        raise CertificateError(f"bad graph payload: {len(edges)} edges on {n} vertices")
    try:
        return CubicGraph(n, edges)
    except (Malformed, NonCubic) as exc:
        raise CertificateError(f"bad graph payload: {exc}") from exc


def validate_certificate(doc: dict, expect_graph: Optional[CubicGraph] = None) -> dict:
    """Full verification: trails form normal odd partitions; with two or
    more partitions they must be pairwise compatible; the claimed
    "matchings", "coloring", "family" and "profiles", when present, must
    hold (see _mismatch).

    Each partition is one validate_normal call on the trails' id lists as
    they stand in the document, after one pass over all their ids checks
    that they are ints.  A graph payload equal to expect_graph is not
    built a second time.

    Returns a report dict with "ok" plus per-partition diagnostics; never
    raises for semantic failures.  The entry of each normal partition
    carries its "lengths" and whether it is "odd", both read off the id
    lists validate_normal has just checked, as is the associated matching
    of an odd one (its edges at odd list positions) when a claim needs it;
    the indices of the even ones are listed under "even".  Pairs are
    compared by agreement.
    A document of the wrong shape raises CertificateError: not an object, a graph payload that is not a cubic
    graph, partitions that are not a non-empty list of lists, a trail
    whose vertices or edges are not a list of int ids (the first such
    trail is named), or a claimed field of the wrong shape (see _claims)."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate is not a JSON object")
    raw = doc.get("partitions")
    if not isinstance(raw, list) or not raw or not all(isinstance(p, list) for p in raw):
        raise CertificateError("partitions must be a non-empty list of trail lists")
    g = parse_graph(doc, expect_graph)
    claims = _claims(doc, g, len(raw))
    report: dict = {"schema": SCHEMA, "ok": True, "n": g.n, "m": g.m, "partitions": []}
    if expect_graph is not None and g != expect_graph:
        report["ok"] = False
        report["graph_mismatch"] = True
        return report
    parts: list[Optional[NormalPartition]] = []
    # the associated matching of each normal odd partition, for _mismatch
    own: list[Optional[frozenset[int]]] = []
    want_matchings = "matchings" in claims or "coloring" in claims
    for i, part in enumerate(raw):
        entry: dict = {"index": i, "violations": []}
        try:
            trails = [(t["vertices"], t["edges"]) for t in part]
        except (KeyError, TypeError):
            trails = None
        if trails is None or not (
            _LIST.issuperset(map(type, chain.from_iterable(trails)))
            and _INT.issuperset(map(type, chain.from_iterable(chain.from_iterable(trails))))
        ):
            for j, t in enumerate(part):  # name the first trail of the wrong shape
                try:
                    if not (_ints(t["vertices"]) and _ints(t["edges"])):
                        raise TypeError("vertices and edges must be lists of int ids")
                except (KeyError, TypeError) as exc:
                    raise CertificateError(f"partition {i} trail {j}: {exc}") from exc
        try:
            p: Optional[NormalPartition] = validate_normal(g, trails)
        except InvalidPartition as exc:
            p = None
            entry["violations"] = [str(v) for v in exc.violations]
        parts.append(p)
        own.append(None)
        if p is None:
            report["ok"] = False
        else:
            edges = list(map(_SECOND, trails))
            lengths = list(map(len, edges))
            entry["lengths"] = sorted(lengths, reverse=True)
            entry["odd"] = all(x & 1 for x in lengths)
            if not entry["odd"]:
                report["ok"] = False
                report.setdefault("even", []).append(i)
            elif want_matchings:
                own[i] = frozenset(chain.from_iterable(map(_ODD_EDGES, edges)))
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
    mismatch = _mismatch(g, own, report["partitions"], claims)
    if mismatch:
        report["ok"] = False
        report["mismatch"] = mismatch
    return report


def _claims(doc: dict, g: CubicGraph, k: int) -> dict:
    """The claimed fields present in doc, by name: "matchings" and
    "profiles" (one list of ints per partition: edge ids, trail lengths),
    "coloring" (a color 0, 1 or 2 per edge, for exactly three partitions)
    and "family" (a graph spec, replaced by whether it generates g).  A
    null field is absent.  CertificateError when one has the wrong shape,
    which for the family is a spec that generate refuses."""
    keys = ("matchings", "profiles", "coloring", "family")
    claims = {key: doc[key] for key in keys if doc.get(key) is not None}
    for key in ("matchings", "profiles"):
        if key in claims and not (
            isinstance(claims[key], list) and len(claims[key]) == k and all(map(_ints, claims[key]))
        ):
            raise CertificateError(f"{key} must be {k} lists of ints")
    coloring = claims.get("coloring")
    if coloring is not None and not (
        k == 3
        and isinstance(coloring, list)
        and len(coloring) == g.m
        and _INT.issuperset(map(type, coloring))
        and _COLORS.issuperset(coloring)
    ):
        raise CertificateError(f"coloring must give each of {g.m} edges a color 0, 1 or 2, for three partitions")
    if "family" in claims:
        if not isinstance(claims["family"], str):
            raise CertificateError("family must be a graph spec string")
        try:
            family, param = parse_spec(claims["family"])
            # a family graph has more vertices than its parameter, so a
            # larger one is refused before anything is built
            if param is not None and param > g.n:
                raise BadParameter(f"parameter {param} exceeds the {g.n} vertices of the graph")
            claims["family"] = generate(family, param) == g
        except BadParameter as exc:
            raise CertificateError(f"bad family: {exc}") from exc
    return claims


def _mismatch(g: CubicGraph, own: list[Optional[frozenset[int]]], entries: list[dict], claims: dict) -> dict:
    """The claimed fields that do not hold, by name.  own[i] is the
    associated matching of partition i, None when it is not normal and
    odd or no claim needs it.  matchings[i] must be own[i]; the coloring
    must be proper ("improper" lists the vertices where it is not) and
    its class c must be own[c] ("classes" lists the c where it is not),
    so that class c is matchings[c] when both fields hold; profiles[i]
    must be the lengths of partition i, longest first; the family spec
    must generate g (see _claims).  A partition that is not normal and
    odd has no associated matching to compare, and one that is not
    normal no lengths; either is already reported through its entry."""
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
    if matchings is not None:
        # own[i] has no repeats: as multisets, m and own[i] are equal
        # exactly when they have equal sizes and equal sets
        bad = [
            i for i, m in enumerate(matchings)
            if own[i] is not None and (len(m) != len(own[i]) or own[i] != set(m))
        ]
        if bad:
            out["matchings"] = bad
    if coloring is not None:
        # a vertex is proper exactly when the bits 1 << color of its three
        # edges add up to 7, one bit each
        bit = [_COLOR_BIT[c] for c in coloring]
        improper = [
            v for v, (a, b, c) in enumerate(g.vertex_darts)
            if bit[a >> 1] + bit[b >> 1] + bit[c >> 1] != 7
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
