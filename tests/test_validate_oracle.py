"""validate_certificate against the gate-first oracle in validate_oracle:
the same report byte for byte, or the same error, on every emitter's
output and on targeted mutations of it; and on a passing document
validate_normal decodes each partition once and builds no Trail.
Every call in tests/test_certificates_cli.py, its hypothesis mutations
included, is compared as well (see its against_oracle fixture)."""

import copy
import json
import random
from importlib import resources

import pytest
from conftest import circular_ladder, digon_ladder, generalized_petersen3, moebius_ladder, truncated_ladder

import validate_oracle as oracle
from copnc import certificates as C
from copnc import partition
from copnc.cli import main
from copnc.corpus import corpus_all
from copnc.graph import CubicGraph, generate
from copnc.partition import CycleError, trails_from_marking
from copnc.search import find_nop

SHAPES = {
    "circular": circular_ladder(10),
    "moebius": moebius_ladder(10),
    "gp3": generalized_petersen3(10),
    "truncated": truncated_ladder(4),
    "digon": digon_ladder(5),
}


def assert_same(doc, expect_graph=None):
    want = oracle.outcome(oracle.validate_certificate, doc, expect_graph)
    assert oracle.outcome(C.validate_certificate, doc, expect_graph) == want
    return want


def emitted(tmp, argv):
    out = tmp / "cert.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def graph_file(tmp, n, edges):
    path = tmp / "graph.edges"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return f"@{path}"


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(certificate, its graph) for each emitter: conformal, bipartite and
    matching constructs, family triples and single loop-graph partitions."""
    tmp = tmp_path_factory.mktemp("emitted")
    out = []
    for n, edges in SHAPES.values():
        spec = graph_file(tmp, n, edges)
        out.append((emitted(tmp, ["construct", "--method", "conformal", "--graph", spec]), CubicGraph(n, edges)))
    for name in ("k4", "theta", "prism", "cube", "k33"):
        out.append((emitted(tmp, ["construct", "--method", "conformal", "--graph", name]), generate(name)))
    for name in ("k33", "cube"):
        out.append((emitted(tmp, ["construct", "--method", "bipartite", "--graph", name]), generate(name)))
    for name in ("k4", "petersen", "cube"):
        out.append((emitted(tmp, ["construct", "--method", "matching", "--graph", name]), generate(name)))
    for spec in ("petersen", "flower:7", "goldberg:5"):
        g = generate(*[int(x) if x.isdigit() else x for x in spec.split(":")])
        for extra in ([], ["--emit-partitions"]):
            out.append((emitted(tmp, ["family", spec] + extra), g))
    for _, g in corpus_all(4) + corpus_all(6):
        p = find_nop(g)
        if p is not None and g.has_loop():
            out.append((C.certificate(g, [p]), g))
    return out


def test_emitted_certificates(bases):
    k4, cube = generate("k4"), generate("cube")
    for doc, g in bases:
        assert json.loads(assert_same(doc))["ok"] is True
        assert json.loads(assert_same(doc, g))["ok"] is True
        assert json.loads(assert_same(doc, cube if g == k4 else k4))["graph_mismatch"] is True


def test_sweep_certificates(tmp_path):
    path = resources.files("copnc.data").joinpath("corpus_all_n08.edges")
    out = tmp_path / "sweep.jsonl"
    main(["sweep", "--input", str(path), "--check", "conj25", "--out", str(out)])
    graphs = [g for _, g in corpus_all(8)]  # the sweep names them file:index
    docs = [rec for rec in map(json.loads, out.read_text().splitlines()) if "certificate" in rec]
    assert len(docs) > 10
    for rec in docs:
        assert json.loads(assert_same(rec["certificate"], graphs[int(rec["id"].rsplit(":", 1)[1])]))["ok"] is True


def _trail_mutants(doc, g):
    """(label, mutant) pairs, each one change to one of the first trails of
    a partition of doc, or a step of any trail moved to a parallel edge.
    A mutant shares the lists it does not change with doc."""
    n, m = g.n, g.m

    def copied():
        return {**doc, "partitions": [list(part) for part in doc["partitions"]]}

    for i, part in enumerate(doc["partitions"]):
        for j, t in enumerate(part):
            vs, es = t["vertices"], t["edges"]

            def put(vertices=vs, edges=es, whole=None):
                d = copied()
                d["partitions"][i][j] = whole or {"vertices": vertices, "edges": edges}
                return d

            for k in range(1, len(es) - 1):
                # the same step by a parallel edge: a valid trail with the same ends
                a, b = vs[k], vs[k + 1]
                for e in range(m):
                    if e != es[k] and sorted(g.endpoints[e]) == sorted((a, b)):
                        yield "rerouted step", put(vs, es[:k] + [e] + es[k + 1 :])
            if j > 1:
                continue
            yield "reversed", put(vs[::-1], es[::-1])
            yield "wrapped first vertex", put([vs[0] - n] + vs[1:])
            yield "wrapped last vertex", put(vs[:-1] + [vs[-1] - n])
            yield "wrapped first edge", put(vs, [es[0] - m] + es[1:])
            yield "wrapped last edge", put(vs, es[:-1] + [es[-1] - m])
            yield "negative vertex", put([-1] + vs[1:])
            yield "vertex past n", put(vs[:-1] + [n])
            yield "edge past m", put(vs, es[:-1] + [m])
            yield "bool vertex", put([True if v == 1 else v for v in vs])
            yield "bool edge", put(vs, [False if e == 0 else e for e in es])
            yield "equal ends", put(vs[:-1] + [vs[0]])
            yield "no edges", put(vs[:1], [])
            yield "empty", put([], [])
            yield "extra vertex", put(vs + [vs[-1]])
            if j:
                yield "duplicated", put(whole=part[0])
                yield "swapped edges", put(vs, part[0]["edges"])
                d = copied()
                d["partitions"][i][0], d["partitions"][i][j] = t, part[0]
                yield "swapped", d
            if len(es) > 2:
                inner = vs[1:-1]
                yield "negative interior vertex", put([vs[0], inner[0] - n] + inner[1:] + [vs[-1]])
                yield "negative interior edge", put(vs, [es[0], es[1] - m] + es[2:])
                yield "interior vertex moved", put([vs[0], (inner[0] + 1) % n] + inner[1:] + [vs[-1]])
        d = copied()
        d["partitions"][i].append(part[0])
        yield "appended duplicate", d
        d = copied()
        del d["partitions"][i][-1]
        yield "trail removed", d


def test_targeted_mutations(bases):
    counts: dict[str, int] = {}
    for doc, g in bases:
        for label, mutant in _trail_mutants(doc, g):
            assert_same(mutant)
            assert_same(mutant, g)
            counts[label] = counts.get(label, 0) + 1
    assert counts["rerouted step"] > 0 and counts["duplicated"] > 0


def test_closed_trail_and_loop_ends():
    # k4 as a triangle, closed at 0, and its three spokes: vertex 0 ends
    # three trails, vertices 1 and 2 end one each, 3 three
    g = generate("k4")
    edge = {frozenset(uv): e for e, uv in enumerate(g.endpoints)}
    tri = [edge[frozenset((0, 1))], edge[frozenset((1, 2))], edge[frozenset((2, 0))]]
    trails = [{"vertices": [0, 1, 2, 0], "edges": tri}]
    trails += [{"vertices": [v, 3], "edges": [edge[frozenset((v, 3))]]} for v in range(3)]
    assert json.loads(assert_same(C.certificate(g, []) | {"partitions": [trails]}))["ok"] is False
    # every normal partition of the graphs on 2 and 4 vertices, as given
    # and with each trail turned round, loops at its ends included
    from copnc.search import enumerate_normal_partitions

    for _, g in corpus_all(2) + corpus_all(4):
        for p in enumerate_normal_partitions(g):
            doc = C.certificate(g, [p])
            flipped = copy.deepcopy(doc)
            for t in flipped["partitions"][0]:
                t["vertices"].reverse()
                t["edges"].reverse()
            assert json.loads(assert_same(doc))["ok"] == json.loads(assert_same(flipped))["ok"]


def test_marking_with_a_cycle():
    """Trails that end at each vertex once, through the darts of a marking
    that closes a cycle: the decode fails and the diagnostics name them."""
    g = generate("cube")
    rng = random.Random(7)
    while True:
        marking = [rng.choice(s) for s in g.vertex_darts]
        try:
            trails_from_marking(g, marking)
        except CycleError:
            break
    order = list(range(g.n))
    rng.shuffle(order)
    trails = []
    for v, w in zip(order[::2], order[1::2]):
        trails.append({"vertices": [v, g.dart_vertices[marking[v] ^ 1], w], "edges": [marking[v] >> 1, marking[w] >> 1]})
    doc = C.certificate(g, []) | {"partitions": [trails]}
    report = json.loads(assert_same(doc))
    assert report["ok"] is False and report["partitions"][0]["violations"]


def test_passing_document_decodes_once_and_builds_no_trail(monkeypatch, bases):
    def refuse(*args, **kwargs):
        raise AssertionError("a Trail was built")

    calls = []

    def counted(g, marking):
        calls.append(1)
        return trails_from_marking(g, marking)

    monkeypatch.setattr(partition.Trail, "__init__", refuse)
    monkeypatch.setattr(partition, "trails_from_marking", counted)
    for doc, g in bases:
        calls.clear()
        assert C.validate_certificate(doc, g)["ok"] is True
        assert len(calls) == len(doc["partitions"])


def test_expected_graph_reused_only_when_equal():
    g = generate("cube")
    doc = {"graph": C.graph_payload(g)}
    assert C.parse_graph(doc, g) is g
    assert C.parse_graph(doc, generate("k33")) == g
    assert C.parse_graph(copy.deepcopy(doc)) is not g
    for value in (True, 1.0):
        bad = copy.deepcopy(doc)
        e = next(e for e, (u, v) in enumerate(g.endpoints) if 1 in (u, v))
        bad["graph"]["edges"][e] = [value if x == 1 else x for x in bad["graph"]["edges"][e]]
        with pytest.raises(C.CertificateError):
            C.parse_graph(bad, g)
