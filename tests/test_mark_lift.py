"""The digon and triangle surgeries lift markings in place, in the ids of
the input graph; the trail surgeries in trail_surgery.py rebuild every
trail of one contraction step instead.  Each mark lift the library makes
is checked here against that oracle, mark for mark: inside
conformal_triple_general, and on the single steps that digon_extend and
triangle_extend in stepwise_route.py build around the library's
_lift_digon and _lift_triangle.

Inside the route, each lift is matched with its step of the stepwise
route in stepwise_route.py, which builds the graphs on both sides of
every surgery and records their ids in the input graph; the two routes
make the same surgeries (test_contraction.py checks that).
"""

import pytest

from copnc import construct
from copnc.construct import conformal_triple_general
from copnc.graph import CubicGraph, generate, proper_3_edge_coloring
from copnc.partition import NormalPartition

import stepwise_route
from stepwise_route import digon_extend, find_digon, find_triangle, triangle_extend
import trail_surgery
from conftest import corpus_upto, digon_ladder, truncated_ladder

ORACLES = {
    "_lift_digon": ("digon", trail_surgery.lift_digon),
    "_lift_triangle": ("triangle", trail_surgery.lift_triangle),
}


@pytest.fixture
def lifts(monkeypatch):
    """run(g) runs the general route on g with every mark lift checked
    against the trail oracle on the same step of the stepwise route; the
    names of the lifts checked collect in run.checked."""

    originals = {name: getattr(construct, name) for name in ORACLES}
    pending = []  # the steps of the stepwise route left to lift, last to first

    def run(g):
        pending[:] = stepwise_route.route(g).steps
        triple = conformal_triple_general(g)
        assert not pending
        return triple

    for name, (kind, oracle) in ORACLES.items():

        def lift_and_check(site, marks, lift=originals[name], kind=kind, oracle=oracle, name=name):
            step = pending.pop()
            assert step.kind == kind
            before = [list(m) for m in marks]
            rewritten = lift(site, marks)
            small = [NormalPartition(step.info.small, stepwise_route.from_global(step.small_ids, m)) for m in before]
            n = len(before[0])
            expect = [stepwise_route.to_global(step.big_ids, p.marked, n) for p in oracle(step.info, small)]
            assert [list(m) for m in marks] == expect
            # the lift rewrites the marks of the site and of no other vertex
            for old, new in zip(before, marks):
                assert {w for w in range(n) if old[w] != new[w]} <= set(rewritten)
            run.checked.append(name)
            return rewritten

        monkeypatch.setattr(construct, name, lift_and_check)
    run.checked = []
    return run


def test_general_route_on_corpus(lifts):
    graphs = 0
    for name, g in corpus_upto(10, include_simple12=False):
        if find_digon(g) is None and find_triangle(g) is None:
            continue
        if proper_3_edge_coloring(g) is None:
            continue
        before = len(lifts.checked)
        lifts(g).validate()
        graphs += len(lifts.checked) > before
    # the corpus graphs on 6 to 10 vertices that the route contracts
    assert graphs == 78
    assert set(lifts.checked) == set(ORACLES)


@pytest.mark.parametrize(
    "shape, lift, count",
    [(truncated_ladder(10), "_lift_triangle", 20), (digon_ladder(15), "_lift_digon", 15)],
)
def test_general_route_on_shapes(lifts, shape, lift, count):
    n, edges = shape
    g = CubicGraph(n, edges)
    assert lifts(g).graph == g
    assert lifts.checked == [lift] * count


@pytest.mark.parametrize("name", ["cube", "theta"])
def test_extensions(name):
    g = generate(name)
    t = conformal_triple_general(g)
    extensions = [
        (digon_extend, stepwise_route.digon_extend_info, trail_surgery.lift_digon, range(g.m)),
        (triangle_extend, stepwise_route.triangle_extend_info, trail_surgery.lift_triangle, range(g.n)),
    ]
    for extend, step_info, oracle, where in extensions:
        for x in where:
            gb, t2 = extend(g, x, t)
            info = step_info(g, x, t.coloring)
            assert gb == info.big and t2.coloring == info.big_coloring
            expect = oracle(info, t.partitions)
            assert [p.marked for p in t2.partitions] == [p.marked for p in expect]
