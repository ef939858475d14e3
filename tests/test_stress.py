"""Structured graphs beyond the embedded corpus, exercising the conformal
route and the search at larger sizes."""

import pytest

from copnc.construct import conformal_triple_general
from copnc.graph import CubicGraph, proper_3_edge_coloring

from conftest import circular_ladder, generalized_petersen3, moebius_ladder
from lemma_checks import complete_system


class TestLargerConformalTriples:
    @pytest.mark.parametrize("r", [6, 9, 12, 17, 24])
    def test_circular_ladders(self, r):
        t = conformal_triple_general(CubicGraph(*circular_ladder(r)))
        t.validate()

    @pytest.mark.parametrize("r", [5, 8, 13])
    def test_moebius_ladders(self, r):
        t = conformal_triple_general(CubicGraph(*moebius_ladder(r)))
        t.validate()

    def test_bipartite_double_cover_of_petersen(self):
        g = CubicGraph(*generalized_petersen3(10))
        assert proper_3_edge_coloring(g) is not None
        conformal_triple_general(g).validate()


class TestCompleteSystemsBeyondTriples:
    def test_k33_order_four(self, k33):
        assert complete_system(k33, 4) is not None

    def test_petersen_order_five(self, petersen):
        assert complete_system(petersen, 5) is not None
