"""validate_certificate against the gate-first oracle in validate_oracle:
the same report byte for byte, or the same error, on every emitter's
output and on targeted mutations of it; and on a passing document
validate_normal decodes nothing and checks no trail one by one.
Every call in tests/test_certificates_cli.py, its hypothesis mutations
included, is compared as well (see its against_oracle fixture)."""

import copy
import json
import random
from importlib import resources

import pytest
from conftest import circular_ladder, digon_ladder, generalized_petersen3, moebius_ladder, pairing_model, truncated_ladder

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


def _counting_decodes(monkeypatch) -> list:
    """Refuse every one-by-one trail check and record every
    trails_from_marking call."""

    def refuse(*args, **kwargs):
        raise AssertionError("a trail was checked one by one")

    calls = []

    def counted(g, marking):
        calls.append(1)
        return trails_from_marking(g, marking)

    monkeypatch.setattr(partition, "_malformed", refuse)
    monkeypatch.setattr(partition, "trails_from_marking", counted)
    return calls


def test_passing_document_decodes_nothing_and_builds_no_trail(monkeypatch, bases):
    calls = _counting_decodes(monkeypatch)
    for doc, g in bases:
        assert C.validate_certificate(doc, g)["ok"] is True
    assert calls == []


def test_large_certificates_validate_without_a_decode(monkeypatch, tmp_path):
    """Valid conformal certificates at n = 400 and the goldberg:49 and
    flower:99 family certificates validate with no trails_from_marking
    call, their matchings and coloring checked included."""
    n, edges = circular_ladder(200)
    docs = [(emitted(tmp_path, ["construct", "--method", "conformal", "--graph", graph_file(tmp_path, n, edges)]), CubicGraph(n, edges))]
    for spec in ("goldberg:49", "flower:99"):
        name, k = spec.split(":")
        docs.append((emitted(tmp_path, ["family", spec, "--emit-partitions"]), generate(name, int(k))))
    calls = _counting_decodes(monkeypatch)
    for doc, g in docs:
        assert g.n >= 392 and {"matchings"} <= doc.keys()
        for expect in (None, g):
            report = C.validate_certificate(doc, expect)
            assert report["ok"] is True and "mismatch" not in report
    assert calls == []


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


def _pairing_model_partitions():
    """(graph, trails as [vertices, edges] id lists) for normal partitions
    of seeded pairing-model multigraphs, loops and parallel edges kept,
    n = 6 ... 30: the decodes of random markings, two per graph, most of
    them even, and the odd partition of the matching route on each graph
    with a perfect matching."""
    rng = random.Random(2028)
    out = []
    for n in range(6, 32, 2):
        for _ in range(3):
            g = pairing_model(rng, n)
            p = find_nop(g)
            if p is not None:
                out.append((g, [[list(vs), list(es)] for vs, es in p.trails]))
            found = 0
            for _ in range(60):
                try:
                    p = trails_from_marking(g, [rng.choice(s) for s in g.vertex_darts])
                except CycleError:
                    continue
                out.append((g, [[list(vs), list(es)] for vs, es in p.trails]))
                found += 1
                if found == 2:
                    break
    return out


def _id_list_mutants(g, trails):
    """(label, trails) pairs, each one change to trails."""
    n, m = g.n, g.m
    yield "as given", trails
    yield "empty list", []
    yield "empty trail", [[[], []]] + trails[1:]
    for k in range(1, min(len(trails), 3)):
        yield "rotated trail order", trails[k:] + trails[:k]
        yield "duplicated trail", trails[:k] + [trails[0]] + trails[k + 1 :]
    yield "appended duplicate", trails + [trails[-1]]
    for j, (vs, es) in enumerate(trails):

        def put(vertices, edges):
            return trails[:j] + [[vertices, edges]] + trails[j + 1 :]

        if any(g.endpoints[e][0] == g.endpoints[e][1] for e in (es[0], es[-1])):
            # the loop's end dart flips between lower and upper
            yield "loop crossed the other way", put(vs[::-1], es[::-1])
        if j > 2:
            continue
        yield "reversed", put(vs[::-1], es[::-1])
        yield "truncated at the end", put(vs[:-1], es[:-1])
        yield "truncated at the start", put(vs[1:], es[1:])
        for i in {0, len(vs) // 2, len(vs) - 1}:
            yield "vertex changed", put(vs[:i] + [(vs[i] + 1) % n] + vs[i + 1 :], es)
        for i in {0, len(es) // 2, len(es) - 1}:
            yield "edge changed", put(vs, es[:i] + [(es[i] + 1) % m] + es[i + 1 :])
            for e in range(m):
                if e != es[i] and sorted(g.endpoints[e]) == sorted(g.endpoints[es[i]]):
                    yield "parallel edge", put(vs, es[:i] + [e] + es[i + 1 :])


def test_pairing_model_mutations():
    """validate_normal against the decode-and-compare oracle, and
    validate_certificate against the gate-first oracle, byte for byte,
    on mutated normal partitions of multigraphs with loops and parallel
    edges."""
    counts: dict[str, int] = {}
    oks: dict[str, int] = {}
    loops = parallel = 0
    for g, trails in _pairing_model_partitions():
        loops += sum(u == v for u, v in g.endpoints)
        links = [tuple(sorted(e)) for e in g.endpoints if e[0] != e[1]]
        parallel += len(links) - len(set(links))
        for label, mutant in _id_list_mutants(g, trails):
            want = oracle.partition_outcome(oracle.decode_and_compare, g, mutant)
            assert oracle.partition_outcome(partition.validate_normal, g, mutant) == want, label
            doc = {"graph": C.graph_payload(g), "partitions": [[{"vertices": vs, "edges": es} for vs, es in mutant]]}
            report = assert_same(doc)
            assert_same(doc, g)
            counts[label] = counts.get(label, 0) + 1
            if report.startswith("{") and json.loads(report)["ok"]:
                oks[label] = oks.get(label, 0) + 1
    assert loops > 20 and parallel > 20, (loops, parallel)
    assert min(counts.values()) > 10 and len(counts) == 13, counts
    # reordering and reversing keep a valid certificate; these break it
    assert oks["as given"] > 20 and 2 * oks["as given"] == oks["rotated trail order"], oks
    assert not {"empty list", "empty trail", "duplicated trail", "appended duplicate", "truncated at the end"} & oks.keys()


def test_first_edge_away_from_its_vertex():
    """Trail 0 claims to start at 3 by edge 1 = (0, 2), which does not
    meet 3: its walk from the mark read off that edge still follows the
    ids from 0 on, and every id after the first matches, so only the
    check that an end edge meets its end vertex refuses it (found by a
    seeded search over such id lists)."""
    g = CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 3), (2, 2)])
    trails = [([3, 0, 1, 3, 2, 1], [1, 0, 3, 5, 4]), ([2, 0], [2])]
    want = oracle.partition_outcome(oracle.decode_and_compare, g, trails)
    assert want.startswith("InvalidPartition")
    assert oracle.partition_outcome(partition.validate_normal, g, trails) == want
    assert json.loads(assert_same({"graph": C.graph_payload(g), "partitions": [[{"vertices": vs, "edges": es} for vs, es in trails]]}))["ok"] is False


# the five ways a trail is malformed, each as validate_certificate has
# always reported it: a trail of K4 or of the dumbbell changed, and the
# violations of its partition, byte for byte
_K4_T0 = [[0, 1, 2, 3], [0, 3, 5]]
MALFORMED_TRAILS = [
    ("k4", [_K4_T0, [[1, 3, 0], [4, 2, 1]]], ["trail 1 malformed: 3 vertices with 3 edges"]),
    ("k4", [_K4_T0, [[1, 3, 0, 2], [4, 4, 1]]], ["trail 1 malformed: repeated edge id"]),
    ("k4", [_K4_T0, [[1, 3, 0, 2], [4, 2, 6]]], ["trail 1 malformed: edge id 6 out of range"]),
    ("k4", [_K4_T0, [[1, 3, 0, 3], [4, 2, 1]]], ["trail 1 malformed: edge 1=(0,2) does not join 0,3"]),
    ("dumbbell", [[[0, 1, 1, 1], [0, 1, 2]]], ["trail 0 malformed: loop 0 does not sit at step 0"]),
    (
        "k4",
        [[[0, 1, 2], [0, 3, 5]], [[1, 3, 0, 2], [4, -1, 1]]],
        ["trail 0 malformed: 3 vertices with 3 edges", "trail 1 malformed: edge id -1 out of range"],
    ),
]


@pytest.mark.parametrize("name,trails,violations", MALFORMED_TRAILS)
def test_malformed_trail_messages(name, trails, violations, k4, dumbbell):
    g = {"k4": k4, "dumbbell": dumbbell}[name]
    doc = {"graph": C.graph_payload(g), "partitions": [[{"vertices": vs, "edges": es} for vs, es in trails]]}
    report = json.loads(assert_same(doc))
    assert report["ok"] is False and report["partitions"][0]["violations"] == violations
