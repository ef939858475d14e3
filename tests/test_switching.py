import pytest

from copnc.graph import CubicGraph, generate, perfect_matchings
from copnc.partition import (
    NormalPartition,
    Trail,
    associated_matching,
    is_odd,
    stats,
    validate_normal,
)
from copnc.search import enumerate_nops
from copnc.switching import (
    BadBranch,
    CapExceeded,
    NotConformalInput,
    conformal_switch,
    odd_switches,
    partition_classes,
    reachable_class,
    switch,
    switch_candidates,
    switch_class,
)

from conftest import circular_ladder, generalized_petersen3, moebius_ladder


def conformal_moved(p, m, v):
    """p after its conformal switch at v, or None; the switch must leave
    the marking it reads untouched."""
    marked = list(p.marked)
    d = conformal_switch(p.graph, marked, m, v)
    assert marked == list(p.marked)
    if d is None:
        return None
    marked[v] = d
    return NormalPartition(p.graph, marked)


class TestSwitch:
    def test_marked_delta_is_exactly_v(self, k4):
        for p in enumerate_nops(k4)[:10]:
            for v in range(4):
                for q in switch_candidates(p, v):
                    delta = [
                        u for u in range(4) if q.marked_edge(u) != p.marked_edge(u)
                    ]
                    assert delta == [v]

    def test_switch_then_inverse_restores(self, cube):
        p = enumerate_nops(cube)[0]
        for v in range(cube.n):
            e = p.passage_edges(v)[0]
            t = next(t for t in p.trails if e in t.edges)
            for branch in set(t.ends) - {v}:
                q = switch(p, v, branch)
                back = [r for r in switch_candidates(q, v) if r == p]
                assert back, "switch must be reversible by a switch at v"

    def test_results_are_valid_partitions(self, petersen):
        p = enumerate_nops(petersen)[0]
        for v in range(petersen.n):
            for q in switch_candidates(p, v):
                assert not validate_normal(q.graph, q.trails) is None

    def test_theta_partial_reversal(self, theta):
        # single-trail partition; the switch on vertex 0 reverses the closed
        # part and re-ends the trail, worked out by following the rewrite
        p = validate_normal(theta, [Trail(theta, (0, 1, 0, 1), (0, 1, 2))])
        q = switch(p, 0, branch=1)
        assert q.trails[0] == Trail(theta, (0, 1, 0, 1), (1, 0, 2))

    def test_bad_branch(self, theta):
        p = validate_normal(theta, [Trail(theta, (0, 1, 0, 1), (0, 1, 2))])
        with pytest.raises(BadBranch):
            switch(p, 0, branch=0)

    def test_candidate_count_matches_trail_case(self, cube):
        # distinct trails at v give two branches, same trail exactly one
        p = enumerate_nops(cube)[0]
        for v in range(cube.n):
            e = p.passage_edges(v)[0]
            same = v in next(t for t in p.trails if e in t.edges).ends
            assert len(switch_candidates(p, v)) == (1 if same else 2)


class TestOddSwitches:
    def test_results_all_odd_and_balanced(self, k33):
        for p in enumerate_nops(k33)[:20]:
            for v in range(k33.n):
                for q in odd_switches(p, v):
                    assert is_odd(q)
                    assert stats(q).balance() == 0

    def test_filter_semantics(self, petersen):
        p = enumerate_nops(petersen)[0]
        for v in range(petersen.n):
            odd = odd_switches(p, v)
            assert odd == [q for q in switch_candidates(p, v) if is_odd(q)]

    def test_k33_counts_against_direct_decode(self, k33):
        """Independent route: re-mark each vertex slot by hand, decode, and
        filter for oddness; on the all-length-3 triple member every vertex
        admits exactly one odd switch."""
        from copnc.construct import bipartite_triple
        from copnc.partition import CycleError, trails_from_marking

        p = bipartite_triple(k33).partitions[0]
        for v in range(6):
            direct = []
            for d in k33.vertex_darts[v]:
                if d == p.marked[v]:
                    continue
                marking = list(p.marked)
                marking[v] = d
                try:
                    q = trails_from_marking(k33, marking)
                except CycleError:
                    continue
                if is_odd(q):
                    direct.append(q)
            got = odd_switches(p, v)
            assert len(got) == len(direct) == 1
            assert got[0] == direct[0]

    def test_dumbbell_loop_switch_is_identity(self, dumbbell):
        p = enumerate_nops(dumbbell)[0]
        for v in range(2):
            for q in switch_candidates(p, v):
                assert q == p  # re-marking the other loop dart changes nothing


class TestConformalSwitch:
    def test_preserves_matching_and_unique(self, cube):
        m = next(perfect_matchings(cube))
        pool = enumerate_nops(cube, conformal_to=m)
        for p in pool[:12]:
            for v in range(cube.n):
                q = conformal_moved(p, m, v)
                if q is not None:
                    assert associated_matching(q) == m
                    assert q.marked_edge(v) != p.marked_edge(v)

    def test_blocked_pattern_returns_none(self, theta):
        # on the three-edge graph every conformal switch is blocked: the
        # vertex is internal and an end of the single trail
        m = frozenset({1})
        for p in enumerate_nops(theta, conformal_to=m):
            assert conformal_switch(theta, p.marked, m, 0) is None
            assert conformal_switch(theta, p.marked, m, 1) is None

    def test_rejects_nonconformal_input(self, cube):
        ms = list(perfect_matchings(cube))
        p = enumerate_nops(cube, conformal_to=ms[0])[0]
        with pytest.raises(NotConformalInput):
            reachable_class(p, "conformal", ms[1])
        with pytest.raises(NotConformalInput):
            switch_class(p, "conformal", ms[1])

    def test_at_most_one_candidate_qualifies(self, cube, petersen):
        from copnc.partition import associated_matching

        for g in (cube, petersen):
            for p in enumerate_nops(g)[:8]:
                m = associated_matching(p)
                for v in range(g.n):
                    winners = [
                        q
                        for q in switch_candidates(p, v)
                        if is_odd(q) and associated_matching(q) == m
                    ]
                    assert len(winners) <= 1


class TestClasses:
    def test_theta_conformal_two_singletons(self, theta):
        m = frozenset({0})
        pool = enumerate_nops(theta, conformal_to=m)
        classes = partition_classes(pool, "conformal", m)
        assert sorted(len(c) for c in classes) == [1, 1]

    def test_k4_odd_single_class(self, k4):
        pool = enumerate_nops(k4)
        classes = partition_classes(pool, "odd")
        assert len(classes) == 1
        assert len(classes[0]) == len(pool)

    def test_k33_conformal_single_class_per_matching(self, k33):
        for m in perfect_matchings(k33):
            pool = enumerate_nops(k33, conformal_to=m)
            classes = partition_classes(pool, "conformal", m)
            assert len(classes) == 1

    def test_summary_diameter(self, theta):
        pool = enumerate_nops(theta)
        summary, members = switch_class(pool[0], "odd")
        assert summary.size == len(members) == 6
        assert summary.diameter_exact
        assert summary.diameter >= 1

    def test_cap(self, petersen):
        p = enumerate_nops(petersen)[0]
        with pytest.raises(CapExceeded):
            reachable_class(p, "odd", cap=5)


def decode_oracle_switch(p, m, v):
    """The conformal switch by full decodes: every switch candidate, kept
    when odd with associated matching m."""
    winners = [
        q
        for q in switch_candidates(p, v)
        if is_odd(q) and associated_matching(q) == m
    ]
    assert len(winners) <= 1
    return winners[0] if winners else None


def assert_same_switch(p, m, v):
    """Local switch and decode oracle agree; returns the local result."""
    from copnc.partition import is_conformal, trails_from_marking

    got = conformal_moved(p, m, v)
    want = decode_oracle_switch(p, m, v)
    if want is None:
        assert got is None
        return None
    assert got == want
    assert got.marked_edges() == want.marked_edges()
    assert associated_matching(got) == m and is_conformal(got, m)
    full = trails_from_marking(p.graph, got.marked)
    assert got.trails == full.trails
    assert got.key == full.key
    return got


WALK_GRAPHS = {
    "cube": lambda: generate("cube"),
    "circular10": lambda: CubicGraph(*circular_ladder(10)),
    "circular30": lambda: CubicGraph(*circular_ladder(30)),
    "moebius10": lambda: CubicGraph(*moebius_ladder(10)),
    "moebius25": lambda: CubicGraph(*moebius_ladder(25)),
    "gp10_3": lambda: CubicGraph(*generalized_petersen3(10)),
    "gp13_3": lambda: CubicGraph(*generalized_petersen3(13)),
    "gp30_3": lambda: CubicGraph(*generalized_petersen3(30)),
}


class TestLocalConformalSwitch:
    """The local switch against the decode oracle, on every (color,
    vertex) pair along seeded random conformal walks."""

    @pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
    def test_matches_decode_oracle_along_walks(self, name):
        import random

        from copnc.construct import nop_from_matching
        from copnc.graph import color_classes, proper_3_edge_coloring

        g = WALK_GRAPHS[name]()
        classes = color_classes(proper_3_edge_coloring(g))
        rng = random.Random(name)
        for m in classes:
            p = nop_from_matching(g, m)
            for _ in range(8):
                moves = [q for v in range(g.n) if (q := assert_same_switch(p, m, v))]
                assert moves, "a conformal partition of these graphs always has a switch"
                p = rng.choice(moves)

    def test_small_multigraphs_every_vertex(self):
        """Loops, digons and blocked patterns: every conformal partition of
        every connected cubic multigraph on up to 6 vertices."""
        from copnc.corpus import corpus_all

        for n in (2, 4, 6):
            for _, g in corpus_all(n):
                for m in perfect_matchings(g):
                    for p in enumerate_nops(g, conformal_to=m):
                        for v in range(g.n):
                            assert_same_switch(p, m, v)

    def test_result_is_lazy_until_read(self, cube):
        """The switch reads a bare marking and builds nothing: it returns
        v's new mark, and the moved marking is decoded only when its
        partition's trails are read."""
        m = next(perfect_matchings(cube))
        marked = enumerate_nops(cube, conformal_to=m)[0].marked
        v, d = next((v, d) for v in range(cube.n) if (d := conformal_switch(cube, marked, m, v)) is not None)
        assert d in cube.vertex_darts[v] and d != marked[v]
        q = NormalPartition(cube, marked[:v] + (d,) + marked[v + 1 :])
        assert q._trails is None
        assert associated_matching(q) == m
        assert q._trails is not None


def decode_oracle_candidates(p, v):
    """Every switch result at v by full decodes: each passage dart of the
    decoded p as v's new mark, kept when the marking decodes."""
    from copnc.partition import CycleError, trails_from_marking

    out = []
    for d in p.passage(v):
        marking = list(p.marked)
        marking[v] = d
        try:
            out.append(trails_from_marking(p.graph, marking))
        except CycleError:
            continue
    return out


def assert_same_results(got, want):
    """Local results against decoded ones: equal partitions, equal marked
    edges and equal fold keys (raw marked darts may differ at loops)."""
    from copnc.switching import _fold_key, _loop_uppers

    assert [q.key for q in got] == [q.key for q in want]
    assert [q.marked_edges() for q in got] == [q.marked_edges() for q in want]
    if got:
        loops = _loop_uppers(got[0].graph)
        assert [_fold_key(q, loops) for q in got] == [_fold_key(q, loops) for q in want]


class TestLocalMoves:
    """Plain and odd switches walk the two changed trails on the marking;
    the oracle decodes every candidate marking in full."""

    def test_small_multigraphs_every_vertex(self):
        from copnc.corpus import corpus_all
        from copnc.search import enumerate_normal_partitions

        checked = 0
        for n in (2, 4, 6):
            for _, g in corpus_all(n):
                for p in enumerate_normal_partitions(g):
                    for v in range(g.n):
                        want = decode_oracle_candidates(p, v)
                        assert_same_results(switch_candidates(p, v), want)
                        odd = [q for q in want if is_odd(q)]
                        assert_same_results(odd_switches(p, v), odd)
                        checked += 1
        assert checked > 10000

    def test_fold_key_equality_is_key_equality(self):
        from copnc.corpus import corpus_all
        from copnc.partition import CycleError, NormalPartition, trails_from_marking
        from copnc.search import enumerate_markings
        from copnc.switching import _fold_key, _loop_uppers

        for n in (2, 4, 6):
            for gid, g in corpus_all(n):
                loops = _loop_uppers(g)
                key_of, fold_of = {}, {}
                for marking in enumerate_markings(g):
                    try:
                        key = trails_from_marking(g, marking).key
                    except CycleError:
                        continue
                    fk = _fold_key(NormalPartition(g, marking), loops)
                    assert key_of.setdefault(fk, key) == key, gid
                    assert fold_of.setdefault(key, fk) == fk, gid

    def test_odd_switch_from_a_non_odd_partition(self, cube):
        from copnc.search import enumerate_normal_partitions

        found = 0
        for p in enumerate_normal_partitions(cube)[:200]:
            if is_odd(p):
                continue
            for v in range(cube.n):
                odd = [q for q in switch_candidates(p, v) if is_odd(q)]
                assert odd_switches(p, v) == odd
                found += bool(odd)
        assert found, "some even partition of the cube switches to an odd one"

    @pytest.mark.parametrize("kind", ["plain", "odd", "conformal"])
    def test_class_walk_results_stay_lazy(self, cube, kind):
        m = next(perfect_matchings(cube))
        p = enumerate_nops(cube, conformal_to=m)[0]
        members = reachable_class(p, kind, m if kind == "conformal" else None)
        assert members[0] is p and len(members) > 100
        assert all(q._trails is None for q in members[1:])

    def test_non_odd_seed_under_odd_moves(self, k4):
        """The seed of an odd class walk need not be odd; every partition
        it reaches is."""
        from copnc.search import enumerate_normal_partitions

        p = next(p for p in enumerate_normal_partitions(k4) if not is_odd(p))
        summary, members = switch_class(p, "odd")
        assert members[0] is p
        assert all(is_odd(q) for q in members[1:])
        assert summary.size == len(members) == len(set(members))


class TestSwitchOracle:
    """The local switch against the table decoder's switch, which finds
    the trail through v's passage by edge position and decodes the new
    marking in full."""

    @staticmethod
    def assert_same_switches(p, want_p):
        import table_decoder

        g = p.graph
        for v in range(g.n):
            for branch in range(g.n):
                try:
                    want = table_decoder.switch(g, want_p, v, branch)
                except BadBranch:
                    want = None
                try:
                    got = switch(p, v, branch)
                except BadBranch:
                    assert want is None, (p.marked, v, branch)
                    continue
                assert want is not None, (p.marked, v, branch)
                assert got.key == want.key
                assert got.marked_edges() == tuple(d >> 1 for d in want.marked)
                assert [u for u in range(g.n) if got.marked[u] != p.marked[u]] == [v]

    def test_every_partition_small(self):
        """Every (v, branch) on every normal partition of every corpus
        graph with n <= 6."""
        import table_decoder

        from copnc.corpus import corpus_all
        from copnc.search import enumerate_normal_partitions

        for n in (2, 4, 6):
            for _, g in corpus_all(n):
                for p in enumerate_normal_partitions(g):
                    self.assert_same_switches(p, table_decoder.decode(g, p.marked))

    def test_every_marking_n8(self):
        """Every (v, branch) on each marking that decodes among every 32nd
        marking of every 4th corpus graph with n = 8."""
        import table_decoder

        from copnc.corpus import corpus_all
        from copnc.partition import CycleError, trails_from_marking
        from copnc.search import enumerate_markings

        for _, g in corpus_all(8)[::4]:
            for marking in list(enumerate_markings(g))[::32]:
                try:
                    want_p = table_decoder.decode(g, marking)
                except CycleError:
                    continue
                self.assert_same_switches(trails_from_marking(g, marking), want_p)


def complete_families(g):
    """(kind, matching, family) for every complete family of g: all normal
    partitions, all odd ones, and the ones conformal to each perfect
    matching."""
    from copnc.search import enumerate_normal_partitions

    yield "plain", None, enumerate_normal_partitions(g)
    yield "odd", None, enumerate_nops(g)
    for m in perfect_matchings(g):
        yield "conformal", m, enumerate_nops(g, conformal_to=m)


def moves_at(p, kind, m, v):
    """The switches of the kind at v, by the local moves."""
    if kind == "plain":
        return switch_candidates(p, v)
    if kind == "odd":
        return odd_switches(p, v)
    q = conformal_moved(p, m, v)
    return [] if q is None else [q]


def fold_keys(parts):
    from copnc.switching import _fold_key, _loop_uppers

    if not parts:
        return []
    loops = _loop_uppers(parts[0].graph)
    return [_fold_key(p, loops) for p in parts]


def restricted_bfs(family, kind, m):
    """The components of family under the switches that stay in it, by
    breadth-first search over the local moves, as sets of fold keys in
    canonical order of their least member."""
    by_key = dict(zip(fold_keys(family), family))
    seen, out = set(), []
    for p in sorted(family, key=lambda p: p.key):
        (k,) = fold_keys([p])
        if k in seen:
            continue
        comp, frontier = {k}, [p]
        while frontier:
            q = frontier.pop()
            for v in range(q.graph.n):
                for r in moves_at(q, kind, m, v):
                    (kr,) = fold_keys([r])
                    if kr in by_key and kr not in comp:
                        comp.add(kr)
                        frontier.append(by_key[kr])
        seen |= comp
        out.append(comp)
    return out


def assert_family_order(classes, family):
    """Every member is a family object, each class lists its members in
    family order, and every family member appears once."""
    pos = {id(p): i for i, p in enumerate(family)}
    for c in classes:
        assert [pos[id(p)] for p in c] == sorted(pos[id(p)] for p in c)
    assert sum(map(len, classes)) == len(set(fold_keys(family)))


class TestClassComponents:
    """partition_classes joins one-vertex mark changes; the local moves
    and the breadth-first class walks are its oracles."""

    def test_moves_are_one_vertex_mark_changes(self):
        """In a complete family the switches at v are exactly the members
        that differ from p at v alone, besides p itself when v carries a
        loop: plain, odd, and conformal for every perfect matching, on every
        corpus graph with n <= 6 and every 8th with n = 8."""
        from copnc.corpus import corpus_all

        graphs = [g for n in (2, 4, 6) for _, g in corpus_all(n)]
        graphs += [g for _, g in corpus_all(8)[::8]]
        checked = 0
        for g in graphs:
            for kind, m, family in complete_families(g):
                keys = fold_keys(family)
                near: dict[tuple, set] = {}
                for k in keys:
                    for v in range(g.n):
                        near.setdefault((v, k[:v] + k[v + 1 :]), set()).add(k)
                for p, k in zip(family, keys):
                    for v in range(g.n):
                        # re-marking the other dart of a loop leaves p as it is
                        got = set(fold_keys(moves_at(p, kind, m, v))) - {k}
                        assert got == near[v, k[:v] + k[v + 1 :]] - {k}, (kind, m, p.marked, v)
                        checked += 1
        assert checked > 300000

    def test_classes_match_class_walks(self):
        """Every complete family of every corpus graph with n <= 6 (loop
        graphs included) and every 8th with n = 8: the components are the
        reachable_class walks from the seeds in canonical order."""
        from copnc.corpus import corpus_all

        graphs = [g for n in (2, 4, 6) for _, g in corpus_all(n)]
        graphs += [g for _, g in corpus_all(8)[::8]]
        split = 0
        for g in graphs:
            for kind, m, family in complete_families(g):
                classes = partition_classes(family, kind, m)
                seen, want = set(), []
                for p, k in zip(family, fold_keys(family)):
                    if k not in seen:
                        want.append(set(fold_keys(reachable_class(p, kind, m))))
                        seen |= want[-1]
                assert [set(fold_keys(c)) for c in classes] == want, (kind, m)
                assert_family_order(classes, family)
                split += len(classes) > 1
        assert split == 3  # theta's two conformal singletons, for each matching

    @pytest.mark.parametrize(
        "name,kind",
        [("k33", "odd"), ("prism", "plain"), ("cube", "odd"), ("cube", "conformal"), ("petersen", "conformal")],
    )
    def test_random_subfamilies(self, name, kind):
        """Seeded random, shuffled sub-families split into several
        components; each is the breadth-first search restricted to the
        sub-family, and the classes come in canonical order of their
        least member."""
        import random

        from copnc.search import enumerate_normal_partitions

        g = generate(name)
        m = next(perfect_matchings(g)) if kind == "conformal" else None
        full = enumerate_normal_partitions(g) if kind == "plain" else enumerate_nops(g, conformal_to=m)
        rng = random.Random(f"{name}-{kind}")
        split = 0
        for keep in (0.15, 0.3, 0.5, 0.8):
            family = [p for p in full if rng.random() < keep]
            rng.shuffle(family)
            classes = partition_classes(family, kind, m)
            assert [set(fold_keys(c)) for c in classes] == restricted_bfs(family, kind, m)
            assert_family_order(classes, family)
            split += len(classes) > 1
        assert split >= 2

    def test_duplicate_members_kept_once(self, k4):
        family = enumerate_nops(k4)
        classes = partition_classes(family + family[::-1], "odd")
        assert len(classes) == 1 and all(a is b for a, b in zip(classes[0], family))

    def test_members_not_of_the_kind(self, k4, k33):
        from copnc.search import enumerate_normal_partitions

        with pytest.raises(ValueError, match="even trail"):
            partition_classes(enumerate_normal_partitions(k4), "odd")
        m = next(perfect_matchings(k33))
        with pytest.raises(ValueError, match="not conformal"):
            partition_classes(enumerate_nops(k33), "conformal", m)
        with pytest.raises(ValueError, match="perfect matching"):
            partition_classes(enumerate_nops(k4), "conformal", frozenset({0}))
        with pytest.raises(ValueError, match="unknown move kind"):
            partition_classes(enumerate_nops(k4), "sideways")
        assert partition_classes([], "odd") == []

    def test_cap(self, k4, theta):
        family = enumerate_nops(k4)
        with pytest.raises(CapExceeded):
            partition_classes(family, "odd", cap=len(family) - 1)
        assert len(partition_classes(family, "odd", cap=len(family))[0]) == len(family)
        m = frozenset({0})
        assert len(partition_classes(enumerate_nops(theta, conformal_to=m), "conformal", m, cap=1)) == 2
