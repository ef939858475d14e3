"""The digon and triangle surgeries lift markings; the trail surgeries in
trail_surgery.py rebuild every trail instead.  Each mark lift the library
makes, inside conformal_triple_general or through digon_extend and
triangle_extend, is checked here against that oracle, mark for mark.
"""

import pytest

from copnc import construct
from copnc.construct import (
    conformal_triple_general,
    digon_extend,
    find_digon,
    find_triangle,
    triangle_extend,
)
from copnc.corpus import corpus_upto
from copnc.graph import build_graph, generate, proper_3_edge_coloring
from copnc.partition import NormalPartition

import trail_surgery
from conftest import digon_ladder, truncated_ladder

ORACLES = {
    "_lift_digon": trail_surgery.lift_digon,
    "_lift_triangle": trail_surgery.lift_triangle,
}


@pytest.fixture
def lifts(monkeypatch):
    """Check every mark lift against the oracle; the names of the lifts
    checked collect in the returned list."""
    checked = []
    for name, oracle in ORACLES.items():

        def lift_and_check(info, marks, lift=getattr(construct, name), oracle=oracle, name=name):
            out, site = lift(info, marks)
            expect = oracle(info, [NormalPartition(info.small, m) for m in marks])
            assert out == [list(p.marked) for p in expect]
            # the site holds every vertex whose mark is not carried over
            for small, big in zip(marks, out):
                carried = construct._relabel(info, small)
                assert {w for w, d in enumerate(big) if d != carried[w]} <= set(site)
            checked.append(name)
            return out, site

        monkeypatch.setattr(construct, name, lift_and_check)
    return checked


def test_general_route_on_corpus(lifts):
    graphs = 0
    for name, g in corpus_upto(10, include_simple12=False):
        if find_digon(g) is None and find_triangle(g) is None:
            continue
        if proper_3_edge_coloring(g) is None:
            continue
        before = len(lifts)
        conformal_triple_general(g).validate()
        graphs += len(lifts) > before
    # the corpus graphs on 6 to 10 vertices that the route contracts
    assert graphs == 78
    assert set(lifts) == set(ORACLES)


@pytest.mark.parametrize(
    "shape, lift, count",
    [(truncated_ladder(10), "_lift_triangle", 20), (digon_ladder(15), "_lift_digon", 15)],
)
def test_general_route_on_shapes(lifts, shape, lift, count):
    n, edges = shape
    g = build_graph(n, edges)
    assert conformal_triple_general(g).graph == g
    assert lifts == [lift] * count


@pytest.mark.parametrize("name", ["cube", "theta"])
def test_extensions(lifts, name):
    g = generate(name)
    t = conformal_triple_general(g)
    for e in range(g.m):
        _, t2 = digon_extend(g, e, t)
        t2.validate()
    for v in range(g.n):
        _, t2 = triangle_extend(g, v, t)
        t2.validate()
    assert lifts.count("_lift_digon") == g.m
    assert lifts.count("_lift_triangle") == g.n

