"""Checks on the embedded corpora.

Class counts were fixed by the generator's completeness proof (the sum of
n!/|Aut| over emitted classes equals an independent count of labeled
graphs); here we re-verify structural invariants and the simple-graph
counts, which match the published census of connected cubic graphs.
"""

import pytest

from copnc.corpus import MULTI_SIZES, corpus_all, corpus_simple12
from copnc.graph import components

from conftest import corpus_upto, simple_graphs_upto

EXPECTED_CLASSES = {2: 2, 4: 5, 6: 17, 8: 71, 10: 388}
EXPECTED_SIMPLE = {4: 1, 6: 2, 8: 5, 10: 19}


class TestCorpus:
    @pytest.mark.parametrize("n", MULTI_SIZES)
    def test_counts(self, n):
        graphs = corpus_all(n)
        assert len(graphs) == EXPECTED_CLASSES[n]
        for _, g in graphs:
            assert g.n == n and 2 * g.m == 3 * n
            assert len(components(g)) <= 1

    def test_simple12(self):
        graphs = corpus_simple12()
        assert len(graphs) == 85
        for _, g in graphs:
            assert g.n == 12
            pairs = [(min(u, v), max(u, v)) for u, v in g.endpoints]
            assert len(set(pairs)) == g.m and all(u != v for u, v in pairs)

    def test_no_duplicates(self):
        seen = set()
        for _, g in corpus_upto(12):
            key = (g.n, g.endpoints)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_simple_subset_counts(self, n):
        count = sum(1 for gid, g in simple_graphs_upto(n) if g.n == n)
        assert count == EXPECTED_SIMPLE[n]

    def test_ids_stable(self):
        a = [gid for gid, _ in corpus_all(6)]
        b = [gid for gid, _ in corpus_all(6)]
        assert a == b and a[0] == "n06_0000"

    def test_known_members_present(self, petersen, theta, dumbbell):
        import networkx as nx

        def contains(n, target):
            tg = nx.MultiGraph(list(target.endpoints))
            return any(
                nx.is_isomorphic(nx.MultiGraph(list(g.endpoints)), tg)
                for _, g in corpus_all(n)
            )

        assert contains(2, theta)
        assert contains(2, dumbbell)
        assert contains(10, petersen)
