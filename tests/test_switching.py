from collections import Counter
from functools import lru_cache

import pytest

from copnc.graph import CubicGraph, generate, perfect_matchings
from copnc.partition import (
    CycleError,
    NormalPartition,
    associated_matching,
    is_odd,
    trails_from_marking,
    validate_normal,
    walk,
)
from copnc.search import enumerate_nops
from copnc.switching import CapExceeded, conformal_switch, partition_classes

from conftest import circular_ladder, generalized_petersen3, moebius_ladder, passage
from union_find_classes import union_find_classes


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


@lru_cache(maxsize=None)
def decodes_odd(g, marking):
    """None when the marking closes a cycle, else whether it decodes to
    an odd partition.  Cached, since the class tests re-mark every family
    member at every vertex."""
    try:
        return is_odd(trails_from_marking(g, marking))
    except CycleError:
        return None


def decode_oracle_candidates(p, v, odd=False):
    """Every switch result at v by its definition: each of v's two
    passage darts as its new mark, kept when the marking decodes (to an
    odd partition, with odd set)."""
    g, marked = p.graph, p.marked
    out = []
    for d in passage(p, v):
        marking = marked[:v] + (d,) + marked[v + 1 :]
        flag = decodes_odd(g, marking)
        if flag or (flag is not None and not odd):
            out.append(NormalPartition(g, marking))
    return out


class TestSwitch:
    """The switch by its definition: v's new mark is one of its passage
    darts, kept when the marking decodes."""

    def test_switch_then_inverse_restores(self, cube):
        # the conformal switch at v undoes itself
        for m in list(perfect_matchings(cube))[:3]:
            for p in enumerate_nops(cube, conformal_to=m)[:12]:
                for v in range(cube.n):
                    d = conformal_switch(cube, p.marked, m, v)
                    if d is not None:
                        q = p.marked[:v] + (d,) + p.marked[v + 1 :]
                        assert conformal_switch(cube, q, m, v) == p.marked[v]

    def test_theta_partial_reversal(self, theta):
        # single-trail partition; the switch on vertex 0 reverses the closed
        # part and re-ends the trail, worked out by following the rewrite
        p = validate_normal(theta, [((0, 1, 0, 1), (0, 1, 2))])
        (q,) = decode_oracle_candidates(p, 0)
        assert q.trails[0] == ((0, 1, 0, 1), (1, 0, 2))

    def test_candidate_count_matches_trail_case(self, cube):
        # distinct trails at v give two switches, same trail exactly one
        p = enumerate_nops(cube)[0]
        for v in range(cube.n):
            e = passage(p, v)[0] >> 1
            vs = next(vs for vs, es in p.trails if e in es)
            same = v in (vs[0], vs[-1])
            assert len(decode_oracle_candidates(p, v)) == (1 if same else 2)


class TestOddSwitches:
    def test_k33_counts_against_direct_decode(self, k33):
        """On the all-length-3 triple member every vertex admits exactly
        one odd switch, and it is the conformal switch."""
        from copnc.construct import bipartite_triple

        p = bipartite_triple(k33).partitions[0]
        m = associated_matching(p)
        for v in range(6):
            odd = decode_oracle_candidates(p, v, odd=True)
            assert len(odd) == 1
            assert conformal_moved(p, m, v) == odd[0]

    def test_dumbbell_loop_switch_is_identity(self, dumbbell):
        p = enumerate_nops(dumbbell)[0]
        for v in range(2):
            for q in decode_oracle_candidates(p, v):
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
        with pytest.raises(ValueError, match="not conformal"):
            partition_classes(enumerate_nops(cube, conformal_to=ms[0]), "conformal", ms[1])

    def test_at_most_one_candidate_qualifies(self, cube, petersen):
        for g in (cube, petersen):
            for p in enumerate_nops(g)[:8]:
                m = associated_matching(p)
                for v in range(g.n):
                    winners = [
                        q
                        for q in decode_oracle_candidates(p, v)
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

    def test_cap(self, petersen):
        with pytest.raises(CapExceeded):
            partition_classes(enumerate_nops(petersen), "odd", cap=5)


def decode_oracle_switch(p, m, v):
    """The conformal switch by full decodes: every switch candidate that
    changes v's marked edge (re-marking the other dart of a loop does
    not), kept when odd with associated matching m."""
    winners = [
        q
        for q in decode_oracle_candidates(p, v)
        if q.marked_edge(v) != p.marked_edge(v) and is_odd(q) and associated_matching(q) == m
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


def test_conformal_switch_walks_once(monkeypatch, cube):
    """One walk a call, of the trail from v's mark, whatever the answer."""
    from copnc import switching

    starts = []

    def counted(g, marked, start):
        starts.append(start)
        return walk(g, marked, start)

    monkeypatch.setattr(switching, "walk", counted)
    m = next(perfect_matchings(cube))
    answers = set()
    for p in enumerate_nops(cube, conformal_to=m):
        for v in range(cube.n):
            starts.clear()
            answers.add(conformal_switch(cube, p.marked, m, v) is None)
            assert starts == [p.marked[v]]
    assert answers == {True, False}


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
    """The switches of the kind at v: by their definition for plain and
    odd moves, by the local conformal switch for conformal ones."""
    if kind == "plain":
        return decode_oracle_candidates(p, v)
    if kind == "odd":
        return decode_oracle_candidates(p, v, odd=True)
    q = conformal_moved(p, m, v)
    return [] if q is None else [q]


@lru_cache(maxsize=None)
def loop_uppers(g):
    return frozenset(2 * e + 1 for e, (u, w) in enumerate(g.endpoints) if u == w)


def fold_keys(parts):
    """Each marking with every loop's upper dart folded to its lower one
    (marking either dart of a loop gives the same partition)."""
    if not parts:
        return []
    uppers = loop_uppers(parts[0].graph)
    if not uppers:
        return [p.marked for p in parts]
    return [tuple(d ^ 1 if d in uppers else d for d in p.marked) for p in parts]


def restricted_bfs(family, kind, m):
    """The components of family under the switches that stay in it, by
    breadth-first search over the local moves, as sets of fold keys in
    canonical order of their least member."""
    by_key = dict(zip(fold_keys(family), family))
    seen, out = set(), []
    for p in sorted(family, key=lambda p: p.trails):
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


SUBFAMILY_CASES = [("k33", "odd"), ("prism", "plain"), ("cube", "odd"), ("cube", "conformal"), ("petersen", "conformal")]


def random_subfamilies(name, kind):
    """(family, matching) for four seeded random, shuffled sub-families of
    the named graph's complete family of the kind, keeping about 15%, 30%,
    50% and 80% of it; conformal ones are to the first perfect matching."""
    import random

    from copnc.search import enumerate_normal_partitions

    g = generate(name)
    m = next(perfect_matchings(g)) if kind == "conformal" else None
    full = enumerate_normal_partitions(g) if kind == "plain" else enumerate_nops(g, conformal_to=m)
    rng = random.Random(f"{name}-{kind}")
    for keep in (0.15, 0.3, 0.5, 0.8):
        family = [p for p in full if rng.random() < keep]
        rng.shuffle(family)
        yield family, m


class TestClassComponents:
    """partition_classes joins one-vertex mark changes; the switches by
    their definition, and breadth-first search over them, are its
    oracles."""

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
        breadth-first searches over the switches, in canonical order."""
        from copnc.corpus import corpus_all

        graphs = [g for n in (2, 4, 6) for _, g in corpus_all(n)]
        graphs += [g for _, g in corpus_all(8)[::8]]
        split = 0
        for g in graphs:
            for kind, m, family in complete_families(g):
                classes = partition_classes(family, kind, m)
                assert [set(fold_keys(c)) for c in classes] == restricted_bfs(family, kind, m), (kind, m)
                assert_family_order(classes, family)
                split += len(classes) > 1
        assert split == 3  # theta's two conformal singletons, for each matching

    @pytest.mark.parametrize("name,kind", SUBFAMILY_CASES)
    def test_random_subfamilies(self, name, kind):
        """Seeded random, shuffled sub-families split into several
        components; each is the breadth-first search restricted to the
        sub-family, and the classes come in canonical order of their
        least member."""
        split = 0
        for family, m in random_subfamilies(name, kind):
            classes = partition_classes(family, kind, m)
            assert [set(fold_keys(c)) for c in classes] == restricted_bfs(family, kind, m)
            assert_family_order(classes, family)
            split += len(classes) > 1
        assert split >= 2

    def test_loop_darts_fold(self):
        """Every corpus graph with n <= 6: a family holding every decodable
        marking and its loop-dart variant (each loop end marking the other
        dart of its loop) keeps one member per partition, and its classes
        are those of the family with one marking per partition."""
        from copnc.corpus import corpus_all
        from copnc.search import enumerate_markings

        looped = 0
        for n in (2, 4, 6):
            for gid, g in corpus_all(n):
                loops = {e for e, (u, w) in enumerate(g.endpoints) if u == w}
                family, distinct = [], {}
                for marking in enumerate_markings(g):
                    try:
                        p = trails_from_marking(g, marking)
                    except CycleError:
                        continue
                    flipped = tuple(d ^ 1 if d >> 1 in loops else d for d in marking)
                    family += [p, NormalPartition(g, flipped)]
                    distinct.setdefault(p.trails, p)
                    assert fold_keys([p]) == fold_keys([family[-1]]), gid
                classes = partition_classes(family, "plain")
                members = [p.trails for c in classes for p in c]
                assert sorted(members) == sorted(distinct), gid
                want = partition_classes(list(distinct.values()), "plain")
                assert [{p.trails for p in c} for c in classes] == [{p.trails for p in c} for c in want], gid
                looped += bool(loops)
        assert looped

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
        for family in (enumerate_nops(k4), []):
            with pytest.raises(ValueError, match="unknown move kind"):
                partition_classes(family, "sideways")
        assert partition_classes([], "odd") == []

    def test_cap(self, k4, theta):
        family = enumerate_nops(k4)
        with pytest.raises(CapExceeded):
            partition_classes(family, "odd", cap=len(family) - 1)
        assert len(partition_classes(family, "odd", cap=len(family))[0]) == len(family)
        m = frozenset({0})
        assert len(partition_classes(enumerate_nops(theta, conformal_to=m), "conformal", m, cap=1)) == 2


def same_classes(got, want):
    """The same classes, holding the same member objects in the same order."""
    return [list(map(id, c)) for c in got] == [list(map(id, c)) for c in want]


class TestUnionFindOracle:
    """The flood fill against the per-vertex union-find it replaced
    (tests/union_find_classes.py): the same classes of the same member
    objects, in the same order."""

    def test_petersen_complete_families(self, petersen):
        sizes = {}
        for kind, m, family in complete_families(petersen):
            got = partition_classes(family, kind, m)
            assert same_classes(got, union_find_classes(family, kind, m)), (kind, m)
            sizes.setdefault(kind, []).append(len(family))
        assert sizes["plain"] == [55134] and sizes["odd"] == [6024] and len(sizes["conformal"]) == 6

    @pytest.mark.parametrize("kind", ["plain", "odd", "conformal"])
    def test_random_subfamilies_n10(self, petersen, kind):
        """Seeded random, shuffled sub-families of the Petersen graph's
        families and of a corpus graph with n = 10 and a loop."""
        import random

        from copnc.corpus import corpus_all
        from copnc.search import enumerate_normal_partitions

        looped = next(g for _, g in corpus_all(10) if any(u == w for u, w in g.endpoints) and next(perfect_matchings(g), None))
        split = 0
        for g in (petersen, looped):
            m = next(perfect_matchings(g)) if kind == "conformal" else None
            full = enumerate_normal_partitions(g) if kind == "plain" else enumerate_nops(g, conformal_to=m)
            rng = random.Random(f"{kind}-{g.endpoints}")
            for keep in (0.01, 0.05, 0.2, 0.5):
                family = [p for p in full if rng.random() < keep]
                rng.shuffle(family)
                got = partition_classes(family, kind, m)
                assert same_classes(got, union_find_classes(family, kind, m)), (kind, keep)
                split += len(got) > 1
        assert split >= 4

    def test_no_vertices(self):
        g = CubicGraph(0, [])
        (p,) = enumerate_nops(g)
        for kind, m in (("plain", None), ("odd", None), ("conformal", frozenset())):
            assert same_classes(partition_classes([p, p], kind, m), [[p]])
            assert same_classes(union_find_classes([p, p], kind, m), [[p]])

    def test_conformal_loop_vertices(self, dumbbell):
        """Conformal moves where a loop vertex takes one value (its mark is
        on the loop): the dumbbell, where every vertex does, and every
        corpus graph with n <= 6 that has a loop and a perfect matching."""
        from copnc.corpus import corpus_all

        graphs = [dumbbell] + [g for n in (4, 6) for _, g in corpus_all(n) if any(u == w for u, w in g.endpoints)]
        checked = 0
        for g in graphs:
            for m in perfect_matchings(g):
                family = enumerate_nops(g, conformal_to=m)
                got = partition_classes(family, "conformal", m)
                assert same_classes(got, union_find_classes(family, "conformal", m)), (g.endpoints, m)
                checked += 1
        assert partition_classes(enumerate_nops(dumbbell), "conformal") == [enumerate_nops(dumbbell)]
        assert checked > 5


@pytest.fixture
def decodes(monkeypatch):
    """A Counter of the markings that partition_classes decodes, counted
    through copnc.switching's binding of trails_from_marking."""
    from copnc import switching

    seen = Counter()

    def counted(g, marking):
        seen[tuple(marking)] += 1
        return trails_from_marking(g, marking)

    monkeypatch.setattr(switching, "trails_from_marking", counted)
    return seen


def decode_cases():
    """(name, family, kind, matching): the cube's and the Petersen graph's
    odd pools, and the seeded sub-families of test_random_subfamilies,
    each member new and undecoded (the sub-families share members)."""
    for name in ("cube", "petersen"):
        yield name, enumerate_nops(generate(name)), "odd", None
    for name, kind in SUBFAMILY_CASES:
        for family, m in random_subfamilies(name, kind):
            yield name, [NormalPartition(p.graph, p.marked) for p in family], kind, m


class TestNoDecodeKept:
    """A call decodes each member at most once, under odd moves each kept
    member exactly once, and leaves every member undecoded; the classes
    stay those of the union-find oracle."""

    def test_one_decode_a_member_none_kept(self, decodes):
        split = 0
        for name, family, kind, m in decode_cases():
            decodes.clear()
            got = partition_classes(family, kind, m)
            assert all(p._trails is None for p in family), (name, kind)
            members = {p.marked for c in got for p in c}
            assert set(decodes) <= members and max(decodes.values(), default=1) == 1, (name, kind)
            if kind == "odd" or len(got) > 1:
                assert set(decodes) == members, (name, kind)
            else:
                assert not decodes, (name, kind)
            assert same_classes(got, union_find_classes(family, kind, m)), (name, kind)
            split += len(got) > 1
        assert split >= 8

    def test_default_matching_decodes_first_once(self, decodes, theta):
        # the first member gives the matching and is decoded once for it and
        # for the order of theta's two singleton classes
        family = enumerate_nops(theta, conformal_to=frozenset({0}))
        got = partition_classes(family, "conformal")
        assert len(got) == 2 and all(p._trails is None for p in family)
        assert sorted(decodes.values()) == [1, 1]

    def test_even_member_refused_before_cap(self, k4):
        from copnc.search import enumerate_normal_partitions

        with pytest.raises(ValueError, match="even trail"):
            partition_classes(enumerate_normal_partitions(k4), "odd", cap=1)
