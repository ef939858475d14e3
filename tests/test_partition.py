import itertools
from collections import Counter

import pytest

from copnc.partition import (
    CycleError,
    InvalidPartition,
    NotAPartition,
    NotATrail,
    NotOdd,
    VertexEndCount,
    VertexNeverInternal,
    agreement,
    associated_matching,
    is_conformal,
    is_odd,
    length_profile,
    partition_violations,
    trails_from_marking,
    validate_normal,
)
from copnc.construct import bipartite_triple, nop_from_matching
from copnc.families import _is_odd_edge
from copnc.graph import perfect_matchings
from copnc.search import enumerate_nops

from conftest import pairing_model, passage
from lemma_checks import edge_role_audit


def dart(g, e, v):
    return 2 * e if g.endpoints[e][0] == v else 2 * e + 1


def agrees_at(parts, v):
    """True when two of the partitions mark the same edge at v: the
    one-vertex oracle for agreement."""
    return len({p.marked[v] >> 1 for p in parts}) < len(parts)


def assert_validates_to(g, p):
    """validate_normal gives p back from p's trails, both as they are and
    with each trail reversed: equal, with equal marked edges and the same
    canonically oriented trails."""
    want = list(p.trails)
    for trails in (want, [(vs[::-1], es[::-1]) for vs, es in want]):
        q = validate_normal(g, trails)
        assert q == p and q.marked_edges() == p.marked_edges()
        assert list(q.trails) == want


def malformed(g, vertices, edges):
    """What validate_normal says of a partition whose trail 0 is the given
    id lists, or None when it does not call that trail malformed."""
    try:
        validate_normal(g, [(vertices, edges)])
    except InvalidPartition as exc:
        return next((v.reason for v in exc.violations if isinstance(v, NotATrail)), None)
    return None


class TestTrail:
    """The trail checks validate_normal runs on a partition it refuses."""

    def test_basic(self, k4):
        assert malformed(k4, (0, 1, 2, 3), (0, 3, 5)) is None

    def test_incidence_checked(self, k4):
        # edge 1 is (0,2), not at 1-3
        assert malformed(k4, (0, 1, 3), (0, 0 + 1)) == "edge 1=(0,2) does not join 1,3"

    def test_repeated_edge_rejected(self, k4):
        assert malformed(k4, (0, 1, 0), (0, 0)) == "repeated edge id"

    def test_vertices_may_repeat(self, theta):
        assert malformed(theta, (0, 1, 0, 1), (0, 1, 2)) is None

    def test_loop_steps(self, dumbbell):
        assert malformed(dumbbell, (0, 0, 1, 1), (0, 1, 2)) is None
        assert malformed(dumbbell, (0, 1, 1, 1), (0, 1, 2)) == "loop 0 does not sit at step 0"


class TestOddEdges:
    """The odd edges of a trail sit at its even 1-based positions."""

    def test_length_three_middle_only(self, k4):
        p = validate_normal(k4, [((0, 1, 2, 3), (0, 3, 5)), ((1, 3, 0, 2), (4, 2, 1))])
        assert [e for e in range(k4.m) if _is_odd_edge(p, e)] == [2, 3]
        assert associated_matching(p) == {2, 3}

    def test_length_one_none(self, k4):
        p = validate_normal(k4, [((0, 1), (0,)), ((2, 0, 3, 1, 2, 3), (1, 2, 4, 3, 5))])
        assert not _is_odd_edge(p, 0)

    def test_length_five_positions_two_and_four(self, k4):
        p = validate_normal(k4, [((0, 1), (0,)), ((2, 0, 3, 1, 2, 3), (1, 2, 4, 3, 5))])
        assert [e for e in range(k4.m) if _is_odd_edge(p, e)] == [2, 3]
        assert associated_matching(p) == {2, 3}


class TestValidateNormal:
    def test_theta_single_trail(self, theta):
        p = validate_normal(theta, [((0, 1, 0, 1), (0, 1, 2))])
        assert len(p.trails) == 1 == theta.n // 2
        assert is_odd(p)

    def test_k33_triple_trails(self, k33):
        triple = bipartite_triple(k33)
        for p in triple.partitions:
            assert len(p.trails) == 3
            assert all(len(es) == 3 for _, es in p.trails)

    def test_double_cover_rejected(self, k4):
        t1 = ((0, 1, 2, 3), (0, 3, 5))
        t2 = ((1, 3, 2, 0), (4, 5, 1))
        bad = partition_violations(k4, [t1, t2])
        assert NotAPartition(5, 2) in bad
        with pytest.raises(InvalidPartition):
            validate_normal(k4, [t1, t2])

    def test_all_violations_reported(self, k4):
        bad = partition_violations(k4, [((0, 1), (0,))])
        kinds = {type(v) for v in bad}
        assert kinds == {NotAPartition, VertexNeverInternal, VertexEndCount}

    def test_enrichment_tables(self, theta):
        p = validate_normal(theta, [((0, 1, 0, 1), (0, 1, 2))])
        assert p.marked_edge(0) == 0 and p.marked_edge(1) == 2
        assert passage(p, 0) == (2, 4) and passage(p, 1) == (1, 3)

    def test_every_corpus_partition_validates_to_itself(self):
        # every normal partition of the corpus graphs with n <= 6, loops
        # included: the end marking decodes to the given trails
        from copnc.corpus import corpus_all
        from copnc.search import enumerate_normal_partitions

        checked = loops = 0
        for g in [g for n in (2, 4, 6) for _, g in corpus_all(n)]:
            has_loop = g.has_loop()
            for p in enumerate_normal_partitions(g):
                assert_validates_to(g, p)
                checked += 1
                loops += has_loop
        assert checked > 4000 and loops > 1000, (checked, loops)

    def test_no_trail_may_close_on_one_vertex(self, k4):
        # a trail with both ends at the same vertex overloads its end slot
        closed = ((0, 1, 2, 0), (0, 3, 1))
        unit = ((1, 3), (4,))
        rest = ((2, 3, 0), (5, 2))
        bad = partition_violations(k4, [closed, unit, rest])
        assert VertexEndCount(0, 3) in bad


class TestMarkingRoundTrip:
    def test_k4_rotation_marking(self, k4):
        # each vertex marks its edge toward vertex (v+1) mod 4;
        # transition-following gives two length-3 trails, computed by hand
        to = {0: 1, 1: 2, 2: 3, 3: 0}
        lut = {}
        for e, (a, b) in enumerate(k4.endpoints):
            lut[(a, b)] = e
            lut[(b, a)] = e
        marking = [dart(k4, lut[(v, to[v])], v) for v in range(4)]
        p = trails_from_marking(k4, marking)
        assert p.trails == (((0, 1, 3, 2), (0, 4, 5)), ((1, 2, 0, 3), (3, 1, 2)))
        assert not partition_violations(k4, p.trails)

    def test_cycle_error_on_triangle_gadget(self, prism):
        # triangle 0-1-2 of the prism: every triangle vertex marks its rung,
        # so the triangle edges pair internally into a closed cycle
        marking = []
        for v in range(3):
            rung = next(e for e in prism.edges_at(v) if prism.other_end(e, v) == v + 3)
            marking.append(dart(prism, rung, v))
        for v in range(3, 6):
            tri = next(e for e in prism.edges_at(v) if prism.other_end(e, v) != v - 3)
            marking.append(dart(prism, tri, v))
        with pytest.raises(CycleError) as err:
            trails_from_marking(prism, marking)
        assert set(err.value.cycle_edges) == {0, 1, 2}

    def test_roundtrip_identity_over_all_nops(self, k4):
        for p in enumerate_nops(k4):
            assert trails_from_marking(k4, p.marked) == p

    def test_marking_roundtrip_other_direction(self, prism):
        # decode then re-read: identity on every valid marking; decode
        # keeps each marking as given, loops included (TestDecoderOracle
        # checks that on loop graphs too)
        from copnc.search import enumerate_markings

        hits = 0
        for marking in enumerate_markings(prism):
            try:
                p = trails_from_marking(prism, marking)
            except CycleError:
                continue
            assert p.marked == marking
            hits += 1
        assert hits > 50

    def test_marking_total_required(self, k4):
        with pytest.raises(ValueError):
            trails_from_marking(k4, [0, 2])


def oracle_graphs():
    """Every corpus graph with n <= 6 and every 4th one with n = 8."""
    from copnc.corpus import corpus_all

    return [g for n in (2, 4, 6) for _, g in corpus_all(n)] + [g for _, g in corpus_all(8)][::4]


class TestDecoderOracle:
    """The walking decoder against the table decoder kept in tests."""

    def test_every_marking_matches_table_decoder(self):
        import table_decoder

        from copnc.search import enumerate_markings

        decoded = cycles = 0
        for g in oracle_graphs():
            for marking in enumerate_markings(g):
                try:
                    want = table_decoder.decode(g, marking)
                except CycleError as exc:
                    try:
                        trails_from_marking(g, marking)
                    except CycleError as err:
                        assert err.cycle_edges == exc.cycle_edges
                    else:
                        raise AssertionError(f"{marking} decodes but closes a cycle")
                    cycles += 1
                    continue
                got = trails_from_marking(g, marking)
                assert got.trails == want.trails
                assert got.marked == marking  # as given, loop darts included
                assert got.marked_edges() == tuple(d >> 1 for d in want.marked)
                edges = [(a >> 1, b >> 1) for a, b in (passage(got, v) for v in range(g.n))]
                assert edges == [(a >> 1, b >> 1) for a, b in want.passage]
                decoded += 1
        assert decoded > 50000 and cycles > 50000

    def test_input_checks_match_table_decoder(self, k4):
        import table_decoder

        for marking in ([0, 2], [0, 2, 4, 6, 8], [0, 0, 3, 5], [1, 2, 4, 6]):
            with pytest.raises(ValueError) as want:
                table_decoder.decode(k4, marking)
            with pytest.raises(ValueError) as got:
                trails_from_marking(k4, marking)
            assert str(got.value) == str(want.value)


class TestDecoderPairingModel:
    """The decoder against the table decoder on seeded pairing-model
    multigraphs with n = 10 ... 60, where TestDecoderOracle cannot try
    every marking: random markings, about half of which close a cycle."""

    def test_random_markings_match_table_decoder(self):
        import random

        import table_decoder

        rng = random.Random(2012)
        decoded = cycles = loops = parallel = 0
        for n in range(10, 62, 2):
            for _ in range(4):
                g = pairing_model(rng, n)
                loops += sum(u == v for u, v in g.endpoints)
                links = [tuple(sorted(e)) for e in g.endpoints if e[0] != e[1]]
                parallel += len(links) - len(set(links))
                for _ in range(25):
                    marking = tuple(rng.choice(slots) for slots in g.vertex_darts)
                    try:
                        want = table_decoder.decode(g, marking)
                    except CycleError as exc:
                        with pytest.raises(CycleError) as err:
                            trails_from_marking(g, marking)
                        assert err.value.args == exc.args
                        assert err.value.cycle_edges == exc.cycle_edges
                        cycles += 1
                        continue
                    got = trails_from_marking(g, marking)
                    assert got.trails == want.trails
                    assert got.marked == marking
                    assert got.marked_edges() == tuple(d >> 1 for d in want.marked)
                    assert_validates_to(g, got)
                    decoded += 1
        assert decoded > 800 and cycles > 800 and loops > 50 and parallel > 50


class TestConformalSwitchPairingModel:
    """The conformal switch on seeded pairing-model multigraphs with a
    perfect matching, n = 10 ... 60: a switch changes the marked edge at
    v and the marking nowhere else, and the new marking decodes to a
    partition conformal to m; no switch means the passage dart off m
    closes a cycle, or is the other dart of a loop at v."""

    def test_random_switch_walks(self):
        import random

        import networkx as nx

        from copnc.switching import conformal_switch

        rng = random.Random(2013)
        graphs = moves = blocked = loops = 0
        for n in range(10, 62, 2):
            for _ in range(4):
                g = pairing_model(rng, n)
                # a maximum matching by networkx: the backtracking of
                # perfect_matchings is slow on these graphs
                edge = {frozenset(uv): e for e, uv in enumerate(g.endpoints) if uv[0] != uv[1]}
                pairs = nx.max_weight_matching(nx.Graph(list(edge)), maxcardinality=True)
                if 2 * len(pairs) < n:
                    continue
                graphs += 1
                m = frozenset(edge[frozenset(uv)] for uv in pairs)
                marked = list(nop_from_matching(g, m).marked)
                for _ in range(30):
                    v = rng.randrange(n)
                    d = conformal_switch(g, marked, m, v)
                    if d is None:
                        (off,) = [x for x in g.vertex_darts[v] if x != marked[v] and x >> 1 not in m]
                        if off == marked[v] ^ 1:  # a loop at v: its other dart marks the same edge
                            loops += 1
                            continue
                        with pytest.raises(CycleError):
                            trails_from_marking(g, marked[:v] + [off] + marked[v + 1:])
                        blocked += 1
                        continue
                    before = list(marked)
                    marked[v] = d
                    p = trails_from_marking(g, marked)
                    assert [w for w in range(n) if p.marked[w] != before[w]] == [v]
                    assert d >> 1 != before[v] >> 1
                    assert is_conformal(p, m)
                    moves += 1
        assert graphs > 80 and moves > 2000 and blocked > 50 and loops > 10, (graphs, moves, blocked, loops)


class TestMatchingsAndConformality:
    def test_construction_roundtrip(self, petersen):
        m = next(perfect_matchings(petersen))
        p = nop_from_matching(petersen, m)
        assert associated_matching(p) == m
        assert is_conformal(p, m)

    def test_not_conformal_to_other_matching(self, petersen):
        ms = list(perfect_matchings(petersen))
        p = nop_from_matching(petersen, ms[0])
        assert not is_conformal(p, ms[1])

    def test_not_odd_raises(self, cube):
        # a hand-built normal partition of the cube with two even trails
        trails = [
            ((1, 0, 2, 3, 7), (0, 1, 5, 7)),
            ((0, 4, 5, 1, 3), (2, 8, 4, 3)),
            ((2, 6, 7, 5), (6, 11, 10)),
            ((4, 6), (9,)),
        ]
        p = validate_normal(cube, trails)
        assert not is_odd(p)
        with pytest.raises(NotOdd):
            associated_matching(p)
        assert not any(is_conformal(p, m) for m in perfect_matchings(cube))

    def test_conformal_marking_rule_matches_trail_definition(self, cube, prism):
        """is_conformal reads the marking alone; it must equal "odd, and the
        odd edges are m" on every normal partition of the corpus graphs
        with n <= 6 and of cube and prism, for every perfect matching and
        for seeded edge sets that are not perfect matchings."""
        import random

        from copnc.corpus import corpus_all
        from copnc.graph import is_perfect_matching
        from copnc.search import enumerate_normal_partitions

        rng = random.Random(2012)
        graphs = [g for n in (2, 4, 6) for _, g in corpus_all(n)] + [cube, prism]
        seen = {True: 0, False: 0}
        even = 0
        for g in graphs:
            sets = list(perfect_matchings(g))
            others = [frozenset(rng.sample(range(g.m), rng.randint(0, g.m))) for _ in range(4)]
            sets += [s for s in others if not is_perfect_matching(g, s)]
            for p in enumerate_normal_partitions(g):
                odd = is_odd(p)
                even += not odd
                for m in sets:
                    want = odd and associated_matching(p) == m
                    assert is_conformal(p, m) == want
                    seen[want] += 1
        assert even and seen[True] and seen[False]

    def test_every_vertex_meets_one_odd_edge(self, petersen):
        for p in enumerate_nops(petersen)[:50]:
            m = associated_matching(p)
            for v in range(petersen.n):
                assert sum(1 for e in set(petersen.edges_at(v)) if e in m) == 1

    def test_theta_conformal_partitions_mark_the_odd_edge(self, theta):
        for p in enumerate_nops(theta, conformal_to=frozenset({1})):
            assert associated_matching(p) == frozenset({1})


class TestCompatibility:
    def test_self_agreement_is_everything(self, k4):
        p = enumerate_nops(k4)[0]
        assert agreement((p, p)) == list(range(4))

    def test_k33_triple_compatible(self, k33):
        t = bipartite_triple(k33)
        assert agreement(t.partitions) == []

    def test_single_vertex_difference(self, k4):
        p = enumerate_nops(k4)[0]
        remarked = []
        for d in passage(p, 2):
            try:
                remarked.append(trails_from_marking(k4, p.marked[:2] + (d,) + p.marked[3:]))
            except CycleError:
                continue
        assert remarked
        for q in remarked:
            assert agreement((p, q)) == [0, 1, 3]

    def test_agreement_helper_matches_pairwise_sets(self, k4):
        def pair(a, b):
            return {v for v in range(4) if a.marked_edge(v) == b.marked_edge(v)}

        ps = enumerate_nops(k4)[:6]
        for p1 in ps:
            for p2 in ps:
                assert agreement((p1, p2)) == sorted(pair(p1, p2))
                for p3 in ps:
                    want = pair(p1, p2) | pair(p1, p3) | pair(p2, p3)
                    assert agreement((p1, p2, p3)) == sorted(want)
                    assert [v for v in range(4) if agrees_at((p1, p2, p3), v)] == sorted(want)

    def test_agreement_matches_agrees_at(self, petersen):
        ps = enumerate_nops(petersen)[::401]
        for parts in itertools.chain(
            itertools.product(ps, repeat=2), itertools.combinations(ps, 3), itertools.combinations(ps, 4)
        ):
            assert agreement(parts) == [v for v in range(petersen.n) if agrees_at(parts, v)]

    def test_agreement_rejects_mixed_graphs(self, k4, k33):
        with pytest.raises(ValueError):
            agreement((enumerate_nops(k4)[0], enumerate_nops(k33)[0]))

    def test_triple_compatibility_uses_all_three_slots(self, k33):
        t = bipartite_triple(k33)
        for v in range(k33.n):
            marks = {p.marked_edge(v) for p in t.partitions}
            assert marks == set(k33.edges_at(v))


class TestStatsAndAudit:
    def test_mu_exactly_three(self, petersen):
        for p in enumerate_nops(petersen)[:25]:
            assert sum(p.lengths()) == 3 * len(p.trails)

    def test_profile_counts(self, k33):
        p = bipartite_triple(k33).partitions[0]
        assert Counter(p.lengths()) == {3: 3}
        assert length_profile(p) == (3, 3, 3)

    def test_audit_on_bipartite_triple(self, k33):
        t = bipartite_triple(k33)
        report = edge_role_audit(*t.partitions)
        # every edge is internal in exactly one partition here
        assert all(roles.count("internal") == 1 for roles in report.values())

    def test_audit_two_internal_means_unit_elsewhere(self, petersen):
        from copnc.families import petersen_triple

        report = edge_role_audit(*petersen_triple())
        for roles in report.values():
            if roles.count("internal") == 2:
                assert roles.count("unit") == 1

    def test_audit_skips_agreement_vertices(self, k4):
        # three copies of one partition agree everywhere, so every edge is
        # excluded from the audit and nothing can fire
        p = enumerate_nops(k4)[0]
        report = edge_role_audit(p, p, p)
        assert len(report) == k4.m

    def test_audit_never_fires_on_searched_triples(self, cube):
        from copnc.search import enumerate_compatible_triples

        seen = 0
        for triple in enumerate_compatible_triples(cube):
            edge_role_audit(*triple)
            seen += 1
            if seen >= 200:
                break
        assert seen > 0
