import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from copnc import construct
from copnc.construct import (
    Contraction,
    NoMatching,
    NotBipartite,
    NotThreeEdgeColorable,
    SearchExhausted,
    _incoming_marks,
    bipartite_triple,
    conformal_triple,
    conformal_triple_general,
    digon_contract,
    nop_from_matching,
    triangle_contract,
    two_factor_cycles,
)
from copnc.graph import CubicGraph, color_classes, generate, perfect_matchings, proper_3_edge_coloring
from copnc.partition import agreement, associated_matching, is_conformal, length_profile

from conftest import circular_ladder, construct_workload_graphs, corpus_upto
from lemma_checks import edge_role_audit
from route_oracles import incoming_marks_by_cycles
from stepwise_route import digon_extend, find_digon, find_triangle, triangle_extend


class TestMatchingRoute:
    def test_petersen_five_trails_of_length_three(self, petersen):
        for m in perfect_matchings(petersen):
            p = nop_from_matching(petersen, m)
            assert length_profile(p) == (3, 3, 3, 3, 3)
            assert is_conformal(p, m)

    def test_theta_single_trail(self, theta):
        p = nop_from_matching(theta, frozenset({0}))
        assert length_profile(p) == (3,)

    def test_orientation_reversal_gives_second_partition(self, petersen):
        m = next(perfect_matchings(petersen))
        cycles = two_factor_cycles(petersen, m)
        p0 = nop_from_matching(petersen, m)
        flipped = tuple(1 if i == 0 else 0 for i in range(len(cycles)))
        p1 = nop_from_matching(petersen, m, flipped)
        assert p0 != p1
        assert is_conformal(p1, m)

    def test_convenience_form_raises_without_matching(self, loop_claw):
        with pytest.raises(NoMatching):
            nop_from_matching(loop_claw)

    def test_conformal_check_survives_optimize_flag(self):
        """A matching-route marking not conformal to m raises, also under
        python -O: here _incoming_marks builds it from another matching."""
        code = "\n".join([
            "import copnc.construct as C",
            "from copnc.graph import generate, perfect_matchings",
            "g = generate('petersen')",
            "m, other = list(perfect_matchings(g))[:2]",
            "marks = C._incoming_marks",
            "C._incoming_marks = lambda g, _, o: marks(g, other, o)",
            "try:",
            "    C.nop_from_matching(g, m)",
            "except AssertionError:",
            "    print('raised')",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(construct.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "raised", out.stderr

    def test_dumbbell_loops_in_two_factor(self, dumbbell):
        p = nop_from_matching(dumbbell, frozenset({1}))
        assert length_profile(p) == (3,)

    def test_orientation_map_degrees(self, petersen):
        """Each vertex marks a 2-factor dart at itself, and each vertex is
        left by exactly one marked dart's edge: one incoming dart each."""
        m = next(perfect_matchings(petersen))
        marks = _incoming_marks(petersen, m, None)
        tails = [petersen.dart_vertices[d ^ 1] for d in marks]
        for v in range(petersen.n):
            assert petersen.dart_vertices[marks[v]] == v
            assert (marks[v] >> 1) not in m
        assert sorted(tails) == list(range(petersen.n))

    def test_incoming_marks_refuse_bad_input(self, petersen):
        m = next(perfect_matchings(petersen))
        cycles = len(two_factor_cycles(petersen, m))
        for bits in ((0,) * (cycles - 1), (0,) * (cycles + 1)):
            with pytest.raises(ValueError, match="bits for"):
                _incoming_marks(petersen, m, bits)
        with pytest.raises(ValueError, match="not a perfect matching"):
            _incoming_marks(petersen, m - {min(m)}, None)

    def test_incoming_marks_match_cycle_oracle_on_corpus(self):
        """One walk per cycle writes the marks that the list of cycles and
        the outgoing dart per vertex gave, for the first perfect matchings
        of every corpus graph with n <= 10 (loops and digons in the
        2-factor included), with all bits 0 and with random bits."""
        rng = random.Random(2024)
        cases = 0
        for gid, g in corpus_upto(10, include_simple12=False):
            for m in islice(perfect_matchings(g), 4):
                bits = [rng.randrange(2) for _ in two_factor_cycles(g, m)]
                for orientation in (None, [0] * len(bits), bits):
                    assert _incoming_marks(g, m, orientation) == incoming_marks_by_cycles(g, m, orientation), gid
                cases += 1
        assert cases > 1000

    @pytest.mark.parametrize("seed", [2001, 7])
    def test_incoming_marks_match_cycle_oracle_on_benchmark_shapes(self, seed):
        rng = random.Random(seed)
        for n, edges in construct_workload_graphs(seed):
            g = CubicGraph(n, edges)
            for m in color_classes(proper_3_edge_coloring(g)):
                bits = [rng.randrange(2) for _ in two_factor_cycles(g, m)]
                for orientation in (None, bits):
                    assert _incoming_marks(g, m, orientation) == incoming_marks_by_cycles(g, m, orientation)


class TestBipartiteRoute:
    def test_k33(self, k33):
        t = bipartite_triple(k33)
        assert all(length_profile(p) == (3, 3, 3) for p in t.partitions)
        assert agreement(t.partitions) == []

    def test_cube_four_trails_each(self, cube):
        t = bipartite_triple(cube)
        assert all(length_profile(p) == (3, 3, 3, 3) for p in t.partitions)

    def test_k4_not_bipartite(self, k4):
        with pytest.raises(NotBipartite):
            bipartite_triple(k4)

    def test_every_edge_internal_exactly_once(self, cube):
        t = bipartite_triple(cube)
        report = edge_role_audit(*t.partitions)
        assert all(roles.count("internal") == 1 for roles in report.values())

    def test_conformal_to_middle_colors(self, k33):
        t = bipartite_triple(k33)
        classes = color_classes(t.coloring)
        for c, p in enumerate(t.partitions):
            assert associated_matching(p) == classes[c]

    def test_works_on_bipartite_multigraphs(self, theta):
        t = bipartite_triple(theta)
        t.validate()
        assert all(length_profile(p) == (3,) for p in t.partitions)


class TestConformalRoute:
    def test_cube_reaches_empty_agreement(self, cube):
        t = conformal_triple(cube)
        assert agreement(t.partitions) == []
        t.validate()

    def test_k33_agrees_with_bipartite_in_validity(self, k33):
        t = conformal_triple(k33)
        t.validate()

    def test_petersen_uncolorable(self, petersen):
        with pytest.raises(NotThreeEdgeColorable):
            conformal_triple(petersen)

    def test_route_decodes_only_the_result(self, monkeypatch):
        """The seed and the descent stay mark lists: on a circular ladder
        the route decodes the three partitions it validates, no more."""
        from conftest import circular_ladder

        from copnc import construct, partition

        calls = [0]
        decode = partition.trails_from_marking

        def counted(*args):
            calls[0] += 1
            return decode(*args)

        monkeypatch.setattr(partition, "trails_from_marking", counted)
        monkeypatch.setattr(construct, "trails_from_marking", counted)
        conformal_triple_general(CubicGraph(*circular_ladder(50))).validate()
        assert calls[0] == 3

    @pytest.mark.parametrize("shape", ["truncated", "digon"])
    def test_lifted_route_decodes_once(self, monkeypatch, shape):
        """With sites to contract, the core's mark lists are lifted
        undecoded: only the lifted triple is decoded, once, to validate
        it, and the partitions it returns carry those trails."""
        from conftest import digon_ladder, truncated_ladder

        from copnc import construct, partition

        calls = [0]
        decode = partition.trails_from_marking

        def counted(*args):
            calls[0] += 1
            return decode(*args)

        monkeypatch.setattr(partition, "trails_from_marking", counted)
        monkeypatch.setattr(construct, "trails_from_marking", counted)
        g = CubicGraph(*(truncated_ladder(8) if shape == "truncated" else digon_ladder(12)))
        t = conformal_triple_general(g)
        assert calls[0] == 3
        t.validate()
        assert all(p.trails for p in t.partitions) and calls[0] == 3

    def test_components_validated_as_a_whole(self, monkeypatch):
        """Two components with sites and one without: the triple on the
        whole graph is the only one decoded."""
        from conftest import circular_ladder, digon_ladder, truncated_ladder

        from copnc import construct, partition

        parts = [truncated_ladder(5), digon_ladder(6), circular_ladder(7)]
        edges, n = [], 0
        for k, es in parts:
            edges += [(u + n, v + n) for u, v in es]
            n += k
        g = CubicGraph(n, edges)
        calls = []
        decode = partition.trails_from_marking

        def counted(h, marking):
            calls.append(h.n)
            return decode(h, marking)

        monkeypatch.setattr(partition, "trails_from_marking", counted)
        monkeypatch.setattr(construct, "trails_from_marking", counted)
        conformal_triple_general(g).validate()
        assert calls == [g.n] * 3

    def test_fallback_and_reseed(self, cube, monkeypatch, caplog):
        """No known input leaves the guided descent, so the random walk
        and the re-seed are forced: the first 700 switches are blocked."""
        calls, seeds = [0], [0]
        switch, seed = construct.conformal_switch, construct._conformal_seed

        def blocked(*args):
            calls[0] += 1
            return None if calls[0] <= 700 else switch(*args)

        def counted(*args):
            seeds[0] += 1
            return seed(*args)

        monkeypatch.setattr(construct, "conformal_switch", blocked)
        monkeypatch.setattr(construct, "_conformal_seed", counted)
        with caplog.at_level("DEBUG", logger="copnc.construct"):
            t = conformal_triple(cube)
        t.validate()
        assert calls[0] > 700 and seeds[0] >= 3
        assert "reached A=0 via fallback" in caplog.text

    def test_budget_exhausted(self, cube):
        with pytest.raises(SearchExhausted):
            conformal_triple(cube, budget=1)

    def test_corpus_needs_no_fallback(self, caplog):
        """Sentinel: the guided descent alone finishes on every
        3-edge-colorable corpus graph whose core it runs on."""
        from conftest import corpus_upto

        with caplog.at_level("DEBUG", logger="copnc.construct"):
            for _, g in corpus_upto(12):
                if proper_3_edge_coloring(g) is not None:
                    conformal_triple_general(g)
        lines = [r.getMessage() for r in caplog.records if "reached A=0 via" in r.getMessage()]
        assert len(lines) > 50
        assert not any("fallback" in line for line in lines)


class TestDescentOracle:
    """construct._descent, whose guided step walks only the switches that
    would take min(A) out of A, against route_oracles.descent_by_candidates,
    which walks a conformal_switch for every candidate: the same mark
    lists, or SearchExhausted at the same budget."""

    # Two disconnected multigraphs with digons, with the coloring each
    # was drawn with as three perfect matchings (colors 0, 1, 2 in edge
    # order), found by a seeded search: the route never hands _descent
    # such a graph (it solves one component at a time), but _descent
    # itself takes any proper coloring.  WALK leaves the guided step for
    # the random walk, which takes |A| down once before one re-seed;
    # RESEED re-seeds 39 times and its walk never helps.
    WALK = [(2, 1), (0, 3), (4, 7), (5, 6), (1, 2), (3, 7), (4, 0), (5, 6), (6, 5), (1, 2), (4, 0), (7, 3)]
    RESEED = [(0, 4), (1, 7), (2, 3), (6, 5), (3, 7), (5, 6), (2, 1), (0, 4), (2, 3), (7, 4), (0, 1), (6, 5)]

    @staticmethod
    def outcome(descent, g, coloring, seed=0, budget=10**6):
        try:
            return descent(g, coloring, seed=seed, budget=budget)
        except SearchExhausted as exc:
            return f"SearchExhausted: {exc}"

    def assert_same(self, g, coloring, seed=0, budget=10**6):
        from route_oracles import descent_by_candidates

        coloring = tuple(coloring)
        want = self.outcome(descent_by_candidates, g, coloring, seed, budget)
        assert self.outcome(construct._descent, g, coloring, seed, budget) == want
        return want

    @pytest.mark.parametrize("seed", [0, 7, 2001])
    def test_construct_workload_shapes(self, seed):
        for n, edges in construct_workload_graphs(seed):
            g = CubicGraph(n, edges)
            assert isinstance(self.assert_same(g, proper_3_edge_coloring(g), seed), list)

    def test_colorable_corpus(self):
        graphs = 0
        for _, g in corpus_upto(12):
            coloring = proper_3_edge_coloring(g)
            if coloring is not None:
                graphs += 1
                assert isinstance(self.assert_same(g, coloring), list)
        assert graphs > 150

    @pytest.mark.parametrize("edges, reseeds", [(WALK, 1), (RESEED, 39)])
    def test_walk_and_reseed(self, monkeypatch, caplog, edges, reseeds):
        g = CubicGraph(8, edges)
        coloring = [0] * 4 + [1] * 4 + [2] * 4
        seeds, seed = [0], construct._conformal_seed

        def counted(*args):
            seeds[0] += 1
            return seed(*args)

        monkeypatch.setattr(construct, "_conformal_seed", counted)
        with caplog.at_level("DEBUG", logger="copnc.construct"):
            assert isinstance(self.assert_same(g, coloring), list)
        assert "reached A=0 via fallback" in caplog.text
        # _descent's own seed, then each of its re-seeds; the oracle
        # calls route_oracles' binding, which is not counted
        assert seeds[0] == 1 + reseeds

    def test_budget_exhausted_at_the_same_switch(self):
        n, edges = circular_ladder(100)
        g = CubicGraph(n, edges)
        coloring = proper_3_edge_coloring(g)
        for budget in range(1, 11):
            assert self.assert_same(g, coloring, budget=budget) == f"SearchExhausted: conformal search exceeded {budget} switches"
        # the least budget that suffices, and one less
        from route_oracles import descent_by_candidates

        low, high = 10, 10**6
        while high - low > 1:
            mid = (low + high) // 2
            ok = isinstance(self.outcome(descent_by_candidates, g, coloring, budget=mid), list)
            low, high = (low, mid) if ok else (mid, high)
        assert isinstance(self.assert_same(g, coloring, budget=high), list)
        assert self.assert_same(g, coloring, budget=low).startswith("SearchExhausted")


class TestDigonSurgery:
    def test_theta_extension_validates(self, theta):
        t = conformal_triple_general(theta)
        g2, t2 = digon_extend(theta, 0, t)
        assert g2.n == 4
        t2.validate()

    def test_extension_then_contraction_restores_graph(self, k33):
        # the merged edge comes back with the last id, so compare edge
        # multisets rather than id-for-id
        t = conformal_triple_general(k33)
        g2, t2 = digon_extend(k33, 0, t)
        state = Contraction(g2, t2.coloring)
        digon_contract(state, find_digon(g2))
        gs, cols, _, _ = state.core()
        assert gs.n == k33.n
        assert sorted(map(sorted, gs.endpoints)) == sorted(map(sorted, k33.endpoints))
        assert sorted(zip(map(tuple, map(sorted, gs.endpoints)), cols)) == sorted(
            zip(map(tuple, map(sorted, k33.endpoints)), t.coloring)
        )

    def test_every_edge_color_role(self, cube):
        t = conformal_triple_general(cube)
        for e in range(cube.m):
            g2, t2 = digon_extend(cube, e, t)
            t2.validate()


class TestTriangleSurgery:
    def test_k33_expansion(self, k33):
        t = conformal_triple_general(k33)
        g2, t2 = triangle_extend(k33, 0, t)
        assert g2.n == 8
        t2.validate()

    def test_expand_then_contract_restores(self, k33):
        t = conformal_triple_general(k33)
        g2, t2 = triangle_extend(k33, 2, t)
        state = Contraction(g2, t2.coloring)
        triangle_contract(state, find_triangle(g2))
        gs, cols, _, _ = state.core()
        assert gs == k33
        assert cols == t.coloring

    def test_every_vertex(self, cube):
        t = conformal_triple_general(cube)
        for v in range(cube.n):
            g2, t2 = triangle_extend(cube, v, t)
            t2.validate()

    def test_vertex_with_parallel_edges(self, theta):
        t = conformal_triple_general(theta)
        g2, t2 = triangle_extend(theta, 0, t)
        t2.validate()
        g3, t3 = digon_extend(g2, 3, t2)
        t3.validate()
        assert g3.n == 6


class TestGeneralRoute:
    @pytest.mark.parametrize("name", ["theta", "k4", "prism", "k33", "cube"])
    def test_small_graphs(self, name):
        g = generate(name)
        t = conformal_triple_general(g)
        t.validate()
        assert t.graph == g

    def test_flower5_rejected(self):
        with pytest.raises(NotThreeEdgeColorable):
            conformal_triple_general(generate("flower", 5))

    def test_multigraph_with_digons(self):
        # 4-cycle with two opposite doubled sides
        g = CubicGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])
        t = conformal_triple_general(g)
        t.validate()

    def test_matches_original_coloring(self, prism):
        col = proper_3_edge_coloring(prism)
        t = conformal_triple_general(prism)
        assert t.coloring == col

    def test_deterministic(self, cube):
        t1 = conformal_triple_general(cube)
        t2 = conformal_triple_general(cube)
        assert [p.trails for p in t1.partitions] == [p.trails for p in t2.partitions]

    @pytest.mark.parametrize("names", [("theta", "k33"), ("k4", "theta"), ("prism", "k33"), ("k4", "k4", "cube")])
    def test_disconnected(self, names):
        """Each component is solved on its own: a component of 4 or fewer
        vertices, or one contracted down to 4, would otherwise meet a digon
        whose hanging edges are its own third edge."""
        edges, n = [], 0
        for name in names:
            h = generate(name)
            edges += [(u + n, v + n) for u, v in h.endpoints]
            n += h.n
        g = CubicGraph(n, edges)
        t = conformal_triple_general(g)
        t.validate()
        assert t.graph == g and t.coloring == proper_3_edge_coloring(g)

    def test_connected_graph_route_unchanged(self, cube):
        """A connected graph goes through the route as one component."""
        from copnc.construct import _conformal_route

        t = conformal_triple_general(cube)
        u = _conformal_route(cube, t.coloring, 0)
        assert [p.marked for p in t.partitions] == [p.marked for p in u.partitions]
