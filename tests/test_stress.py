"""Structured graphs beyond the embedded corpus, exercising the conformal
route and the search at larger sizes."""

import pytest

from copnc.construct import conformal_triple_general
from copnc.graph import CubicGraph, proper_3_edge_coloring

from lemma_checks import complete_system


def circular_ladder(r):
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return CubicGraph(2 * r, edges)


def moebius_ladder(r):
    edges = [(i, (i + 1) % (2 * r)) for i in range(2 * r)]
    edges += [(i, i + r) for i in range(r)]
    return CubicGraph(2 * r, edges)


def generalized_petersen(n, k):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return CubicGraph(2 * n, edges)


class TestLargerConformalTriples:
    @pytest.mark.parametrize("r", [6, 9, 12, 17, 24])
    def test_circular_ladders(self, r):
        t = conformal_triple_general(circular_ladder(r))
        t.validate()

    @pytest.mark.parametrize("r", [5, 8, 13])
    def test_moebius_ladders(self, r):
        t = conformal_triple_general(moebius_ladder(r))
        t.validate()

    def test_bipartite_double_cover_of_petersen(self):
        g = generalized_petersen(10, 3)
        assert proper_3_edge_coloring(g) is not None
        conformal_triple_general(g).validate()


class TestCompleteSystemsBeyondTriples:
    def test_k33_order_four(self, k33):
        assert complete_system(k33, 4) is not None

    def test_petersen_order_five(self, petersen):
        assert complete_system(petersen, 5) is not None
