"""conformal_triple_general contracts digons and triangles in place, in
the ids of its input; stepwise_route.route contracts one graph at a time
with find_digon and find_triangle.  Both must make the same surgeries in
the same order, reach the same core graph with the same coloring, and
return the same three markings.
"""

import random
from contextlib import contextmanager
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copnc import construct
from copnc.construct import conformal_triple_general
from copnc.graph import CubicGraph, generate, proper_3_edge_coloring

import stepwise_route
from stepwise_route import base_triple, digon_extend, find_digon, find_triangle, triangle_extend
from conftest import (
    circular_ladder,
    construct_workload_graphs,
    corpus_upto,
    digon_ladder,
    generalized_petersen3,
    moebius_ladder,
    relabelled,
    truncated_ladder,
)
from route_oracles import FilingEveryVertex, contracted_sites


@contextmanager
def recording():
    """Record the surgeries of the general route, as (kind, site), and the
    (endpoints, coloring) of the core it solves."""
    rec = {"surgeries": [], "core": []}
    saved = {
        name: getattr(construct, name)
        for name in ("digon_contract", "triangle_contract", "_descent", "_base_conformal_triple")
    }

    def contract(kind, field):
        def wrapped(state, site):
            out = saved[f"{kind}_contract"](state, site)
            rec["surgeries"].append((kind, getattr(out, field)))
            return out

        return wrapped

    def solve(name):
        def wrapped(g, coloring, **kwargs):
            rec["core"].append((g.endpoints, tuple(coloring)))
            return saved[name](g, coloring, **kwargs)

        return wrapped

    construct.digon_contract = contract("digon", "digon")
    construct.triangle_contract = contract("triangle", "tri")
    construct._descent = solve("_descent")
    construct._base_conformal_triple = solve("_base_conformal_triple")
    try:
        yield rec
    finally:
        for name, fn in saved.items():
            setattr(construct, name, fn)


def assert_same_route(g: CubicGraph) -> int:
    """The general route on g equals the stepwise one; returns the number
    of surgeries."""
    with recording() as rec:
        triple = conformal_triple_general(g)
    oracle = stepwise_route.route(g)
    assert rec["surgeries"] == [(s.kind, s.site) for s in oracle.steps]
    assert rec["core"] == [(oracle.core.endpoints, oracle.core_coloring)]
    assert [list(p.marked) for p in triple.partitions] == oracle.marks
    return len(oracle.steps)


def test_corpus():
    graphs = 0
    for _, g in corpus_upto(10, include_simple12=False):
        if find_digon(g) is None and find_triangle(g) is None:
            continue
        if proper_3_edge_coloring(g) is None:
            continue
        graphs += assert_same_route(g) > 0
    assert graphs == 78


@pytest.mark.parametrize(
    "shape, surgeries",
    [
        (truncated_ladder(10), 20),
        (truncated_ladder(33), 66),
        (digon_ladder(15), 15),
        (digon_ladder(50), 50),
    ],
)
def test_shapes(shape, surgeries):
    assert assert_same_route(CubicGraph(*shape)) == surgeries


@st.composite
def colorable_multigraphs(draw):
    """A chain of random digon and triangle extensions from k4, k33, prism
    or cube, with its vertices relabelled at random."""
    g = generate(draw(st.sampled_from(["k4", "k33", "prism", "cube"])))
    t = conformal_triple_general(g)
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            g, t = digon_extend(g, draw(st.integers(0, g.m - 1)), t)
        else:
            g, t = triangle_extend(g, draw(st.integers(0, g.n - 1)), t)
    perm = draw(st.permutations(range(g.n)))
    return CubicGraph(g.n, [(perm[u], perm[v]) for u, v in g.endpoints])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(colorable_multigraphs())
def test_random_extensions(g):
    assert_same_route(g)


@pytest.mark.parametrize("shape", [truncated_ladder(400), digon_ladder(400)])
def test_large(shape):
    # n = 2,400 and 1,600: quadratic when each surgery rebuilt the graph
    g = CubicGraph(*shape)
    triple = conformal_triple_general(g)
    assert triple.graph == g
    triple.validate()


def test_base_triple_matches_nested_pools():
    """The base-graph solver, the triple search on the table of each
    vertex's two color 3-cycles, returns the triple that the oracle's
    nested loops over the three key-sorted pools find first: on every
    3-edge-colorable corpus graph with n <= 4 under all six color
    permutations, and on 70 seeded relabellings of each."""
    rng = random.Random(1201)
    cases = 0
    for gid, g0 in corpus_upto(4, include_simple12=False):
        if proper_3_edge_coloring(g0) is None:
            continue
        for r in range(71):
            g = g0
            if r:
                vmap = list(range(g0.n))
                rng.shuffle(vmap)
                edges = [(vmap[u], vmap[v]) if rng.random() < 0.5 else (vmap[v], vmap[u]) for u, v in g0.endpoints]
                rng.shuffle(edges)
                g = CubicGraph(g0.n, edges)
            coloring = proper_3_edge_coloring(g)
            for perm in permutations(range(3)):
                col = tuple(perm[c] for c in coloring)
                got = construct._base_conformal_triple(g, col)
                want = base_triple(g, col)
                assert [p.marked for p in got.partitions] == [p.marked for p in want.partitions], (gid, r, perm)
                cases += 1
    assert cases == 1278


def test_site_free_graph_files_nothing(monkeypatch):
    """A graph with no digon and no triangle goes straight to the descent:
    the route files no vertex."""
    calls = [0]
    file = construct.Contraction.file

    def counted(state, v):
        calls[0] += 1
        return file(state, v)

    monkeypatch.setattr(construct.Contraction, "file", counted)
    conformal_triple_general(CubicGraph(*circular_ladder(50))).validate()
    assert calls[0] == 0
    conformal_triple_general(CubicGraph(*truncated_ladder(5))).validate()
    assert calls[0] > 0


def test_filing_site_vertices_keeps_the_contraction():
    """Filing only the vertices on a digon or a triangle contracts the same
    sites in the same order, down to the same core, as filing every
    vertex: on the corpora with n <= 12 and two seeded relabellings of
    each, and on the benchmark shapes with their generator labels and
    with the construct workload's labels for two seeds.  (A random
    relabelling of a large shape can make the coloring search run for
    minutes, so the shapes keep labels it finds a coloring on fast.)"""
    rng = random.Random(1307)
    graphs = [g for _, g in corpus_upto(12)]
    graphs += [relabelled(g, rng) for g in graphs for _ in range(2)]
    graphs += [
        CubicGraph(*build(r))
        for build, r in (
            (circular_ladder, 30),
            (moebius_ladder, 30),
            (generalized_petersen3, 30),
            (truncated_ladder, 10),
            (digon_ladder, 15),
            (truncated_ladder, 33),
            (digon_ladder, 50),
        )
    ]
    graphs += [CubicGraph(*shape) for seed in (2001, 7) for shape in construct_workload_graphs(seed)]
    surgeries = 0
    for g in graphs:
        coloring = proper_3_edge_coloring(g)
        if coloring is None:
            continue
        fast, oracle = construct.Contraction(g, coloring), FilingEveryVertex(g, coloring)
        sites = contracted_sites(fast)
        assert sites == contracted_sites(oracle)
        assert fast.core() == oracle.core()
        surgeries += len(sites)
    assert surgeries > 1000
