
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copnc.corpus import corpus_all, corpus_simple12
from copnc.graph import (
    CubicGraph,
    bridges,
    color_classes,
    generate,
    has_perfect_matching,
    perfect_matchings,
    proper_3_edge_coloring,
)
from copnc.partition import (
    agreement,
    associated_matching,
    is_odd,
    length_profile,
    trails_from_marking,
    CycleError,
)
from copnc.search import (
    check_graph,
    enumerate_compatible_triples,
    enumerate_markings,
    enumerate_nops,
    enumerate_normal_partitions,
    find_compatible_triple,
    find_length3_triple,
    find_nop,
    _Search,
    _conformal_rows,
    _order,
    _pinned,
)
from copnc.switching import CapExceeded

from conftest import corpus_upto, relabelled
from journal_search import JournalSearch, whole_plan_choices
from keyed_enumeration import first_by_key
from lemma_checks import complete_system, fan_raspaud_witness


def scan_oracle(g):
    """Every normal partition of g, by decoding all 3^n markings: distinct
    by key, sorted by key."""
    out = {}
    for marking in enumerate_markings(g):
        try:
            p = trails_from_marking(g, marking)
        except CycleError:
            continue
        out.setdefault(p.trails, p)
    return [out[k] for k in sorted(out)]


def length3_by_pairs(g):
    """First all-length-3 compatible triple found by pairing candidates, or
    None.

    All-length-3 odd partitions biject with (matching, orientation) pairs:
    the middle edges form a perfect matching and the end edges inherit a
    coherent orientation of the complementary 2-factor.  Given two
    compatible members, the third's marks are forced (the remaining slot at
    every vertex), so pairs plus one dictionary lookup decide existence.
    """
    from copnc.construct import nop_from_matching
    from route_oracles import two_factor_cycles

    if g.has_loop():
        return None
    candidates = []
    seen = set()
    for m in perfect_matchings(g):
        cycles = two_factor_cycles(g, m)
        for bits in range(1 << len(cycles)):
            orient = tuple((bits >> i) & 1 for i in range(len(cycles)))
            p = nop_from_matching(g, m, orient)
            if p.trails not in seen:
                seen.add(p.trails)
                candidates.append(p)
    by_marking = {p.marked: p for p in candidates}
    slot_sum = [sum(g.vertex_darts[v]) for v in range(g.n)]
    for i, p1 in enumerate(candidates):
        for p2 in candidates[i + 1:]:
            if any(p1.marked[v] >> 1 == p2.marked[v] >> 1 for v in range(g.n)):
                continue
            forced = tuple(slot_sum[v] - p1.marked[v] - p2.marked[v] for v in range(g.n))
            p3 = by_marking.get(forced)
            if p3 is not None:
                return (p1, p2, p3)
    return None


class TestFindNop:
    def test_petersen(self, petersen):
        p = find_nop(petersen)
        assert p is not None and length_profile(p) == (3, 3, 3, 3, 3)

    def test_no_matching_graph(self, loop_claw):
        assert not has_perfect_matching(loop_claw)
        assert find_nop(loop_claw) is None

    def test_theta(self, theta):
        assert find_nop(theta) is not None


class TestEnumerateNops:
    def test_theta_complete_list(self, theta):
        nops = enumerate_nops(theta)
        assert len(nops) == 6
        groups = {}
        for p in nops:
            groups.setdefault(associated_matching(p), []).append(p)
        assert sorted(map(len, groups.values())) == [2, 2, 2]
        assert set(groups) == {frozenset({e}) for e in range(3)}

    def test_k4_count_against_direct_scan(self, k4):
        # independent oracle: scan all markings, decode, filter odd
        direct = set()
        for marking in enumerate_markings(k4):
            try:
                p = trails_from_marking(k4, marking)
            except CycleError:
                continue
            if is_odd(p):
                direct.add(p.trails)
        nops = enumerate_nops(k4)
        assert {p.trails for p in nops} == direct
        assert len(nops) == 42

    def test_all_outputs_valid(self, prism):
        for p in enumerate_nops(prism):
            assert is_odd(p)

    def test_cap(self, petersen):
        with pytest.raises(CapExceeded):
            enumerate_nops(petersen, cap=100)

    def test_conformal_to_a_non_matching_is_empty(self, k4, petersen):
        # no partition is conformal to an edge set other than a perfect
        # matching, even though odd partitions avoiding it exist
        for m in ({0}, {0, 1}, {0, 5, 99}, set(range(6))):
            assert enumerate_nops(k4, conformal_to=frozenset(m)) == []
        with pytest.raises(CapExceeded):
            enumerate_nops(petersen, cap=100, conformal_to=frozenset({0}))


def keys(parts):
    return [p.trails for p in parts]


class TestEnumerationMatchesScan:
    """The one-partition search returns exactly the partitions, each once,
    that decoding all 3^n markings returns: plain, odd, and odd conformal
    to each perfect matching."""

    @staticmethod
    def check(gid, g, odd_only=False):
        every = scan_oracle(g)
        odd = [p for p in every if is_odd(p)]
        assert sorted(keys(enumerate_nops(g))) == keys(odd), gid
        if odd_only:
            return
        assert sorted(keys(enumerate_normal_partitions(g))) == keys(every), gid
        for m in perfect_matchings(g):
            want = [p for p in odd if associated_matching(p) == m]
            assert sorted(keys(enumerate_nops(g, conformal_to=m))) == keys(want), (gid, m)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_corpus(self, n):
        for gid, g in corpus_all(n):
            self.check(gid, g)

    @pytest.mark.parametrize("name", ["k33", "prism", "cube"])
    def test_named(self, name):
        self.check(name, generate(name))

    def test_petersen_odd(self, petersen):
        self.check("petersen", petersen, odd_only=True)


def pools(g):
    """(name, search pool, table, odd) of each pool on g: plain, odd, and
    odd conformal to each perfect matching."""
    yield "plain", enumerate_normal_partitions(g), None, False
    yield "odd", enumerate_nops(g), None, True
    for m in perfect_matchings(g):
        yield f"conformal:{sorted(m)}", enumerate_nops(g, conformal_to=m), _conformal_rows(g, [m]), True


class TestSearchOrderPools:
    """The pools keep the search's order and decode nothing.  Against the
    keyed enumeration they hold the same partitions, each once, each by
    the same marking, and in order they are the search's yield order with
    each marking whose partition was yielded before (at a loop, by the
    other dart) left out."""

    @staticmethod
    def check(gid, g):
        for name, pool, allowed, odd in pools(g):
            assert all(p._trails is None for p in pool), (gid, name)
            first = first_by_key(g, odd, allowed)
            assert [p.marked for p in pool] == [p.marked for p in first.values()], (gid, name)
            got = {p.trails: p.marked for p in pool}
            assert len(got) == len(pool), (gid, name)
            assert sorted(got) == sorted(first), (gid, name)
            assert all(got[k] == p.marked for k, p in first.items()), (gid, name)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_corpus(self, n):
        for gid, g in corpus_all(n):
            self.check(gid, g)

    @pytest.mark.parametrize("name", ["k33", "prism", "cube"])
    def test_named(self, name):
        self.check(name, generate(name))


def unordered_triple_keys(triples):
    return {tuple(sorted(p.trails for p in t)) for t in triples}


class TestTripleSearch:
    def test_k4_has_triple_with_length_five(self, k4):
        sols = list(enumerate_compatible_triples(k4))
        assert sols
        for t in sols:
            assert max(max(p.lengths()) for p in t) >= 5
            assert not agreement(t)

    def test_bridge_means_none(self, one_bridge):
        assert bridges(one_bridge)
        assert find_compatible_triple(one_bridge) is None

    def test_loop_pruned(self, dumbbell, loop_claw):
        assert find_compatible_triple(dumbbell) is None
        assert find_compatible_triple(loop_claw) is None

    def test_petersen_some(self, petersen):
        assert find_compatible_triple(petersen) is not None

    def test_pruned_agrees_with_unpruned_on_all_small_graphs(self):
        """Oracle equivalence over every corpus graph on up to 6 vertices:
        the pruned bijection search finds exactly the triples that a raw
        scan over all 6^n per-vertex bijections finds."""
        from itertools import product, permutations

        from copnc.corpus import corpus_all

        perms = list(permutations(range(3)))
        checked = 0
        for n in (2, 4, 6):
            for gid, g in corpus_all(n):
                raw = set()
                for combo in product(range(6), repeat=g.n):
                    markings = [[0] * g.n for _ in range(3)]
                    for v, ci in enumerate(combo):
                        slots = g.vertex_darts[v]
                        for part, si in enumerate(perms[ci]):
                            markings[part][v] = slots[si]
                    try:
                        parts = [trails_from_marking(g, mk) for mk in markings]
                    except CycleError:
                        continue
                    if all(is_odd(p) for p in parts) and not agreement(parts):
                        raw.add(tuple(sorted(p.trails for p in parts)))
                pruned = unordered_triple_keys(enumerate_compatible_triples(g))
                assert pruned == raw, gid
                checked += 1
        assert checked == 24

    def test_long_ladder_needs_no_recursion(self):
        """n = 1,200: the search runs on an explicit stack, so its depth is
        not bounded by the interpreter's recursion limit."""
        import sys

        from conftest import circular_ladder

        limit = sys.getrecursionlimit()
        g = CubicGraph(*circular_ladder(600))
        triple = find_compatible_triple(g)
        assert triple is not None and not agreement(triple)
        assert sys.getrecursionlimit() == limit

    def test_ladder_first_triple_needs_no_backtracking(self):
        """n = 4,800: the exploration order finds the first triple on the
        circular ladder with almost one node per vertex."""
        from conftest import circular_ladder

        g = CubicGraph(*circular_ladder(2400))
        s = _Search(g, 3)
        markings = next(s.solutions())
        assert s.nodes < g.n + 10
        assert not agreement([trails_from_marking(g, mk) for mk in markings])

    def test_constrained_pins_respected(self, k4):
        full = list(enumerate_compatible_triples(k4))
        t0 = full[0]
        fixed = {0: tuple(p.marked[0] for p in t0)}
        for t in enumerate_compatible_triples(k4, fixed=fixed):
            for p, q in zip(t, t0):
                assert p.marked[0] == q.marked[0]


def run(cls, g, k, first=False, fixed=None, avoid=None, **kw):
    """(solutions, nodes) of one search: the first solution or None, or
    the list of all of them.  The journal takes pins (fixed) and a
    matching to avoid as they are; _Search gets them as its table, built
    as enumerate_compatible_triples and enumerate_nops build it."""
    if cls is _Search:
        if fixed:
            kw["allowed"] = _pinned(g, fixed)
        if avoid is not None:
            kw["allowed"] = _conformal_rows(g, [avoid])
    else:
        kw.update(fixed=fixed, avoid=avoid or frozenset())
    s = cls(g, k, **kw)
    sols = next(s.solutions(), None) if first else list(s.solutions())
    return sols, s.nodes


RELABEL_POOL = [g for _, g in corpus_all(8)] + [generate(x) for x in ("k4", "k33", "prism", "cube", "petersen")]


class TestKernelMatchesJournal:
    """The journal-free kernel of _Search visits the same nodes and yields
    the same solutions, in the same order, as the journaled search it
    replaced (journal_search.py): one slot choice per node, tested by reads
    alone, and each vertex undone from its own darts.  Capped at 3, the
    kernel refuses a completed trail shorter than 3 edges too, so capped
    node counts are compared with the journal's exact option on, and
    capped solutions with the verbatim journal as well."""

    @pytest.mark.parametrize("cap", [None, 3])
    def test_first_triple_on_corpus(self, cap):
        for gid, g in corpus_upto(12):
            want = run(JournalSearch, g, 3, first=True, length_cap=cap, exact=cap == 3)
            assert run(_Search, g, 3, first=True, length_cap=cap) == want, gid

    def test_capped_solutions_match_verbatim_journal(self):
        """Refusing short trails under a cap of 3 loses no solution: every
        capped triple in order on the corpus up to n = 8, and the first
        one on the corpus up to n = 12, as the verbatim journal finds
        them."""
        found = 0
        for gid, g in corpus_upto(8):
            want = run(JournalSearch, g, 3, length_cap=3)[0]
            assert run(_Search, g, 3, length_cap=3)[0] == want, gid
            found += len(want)
        assert found > 0
        for gid, g in corpus_upto(12):
            want = run(JournalSearch, g, 3, first=True, length_cap=3)[0]
            assert run(_Search, g, 3, first=True, length_cap=3)[0] == want, gid

    def test_capped_search_visits_fewer_nodes(self):
        """On the simple n = 12 corpus the capped kernel visits fewer nodes
        in all than the verbatim journal, which walks every subtree that
        completes a trail of length 1."""
        graphs = [g for _, g in corpus_simple12()]
        kernel = sum(run(_Search, g, 3, first=True, length_cap=3)[1] for g in graphs)
        journal = sum(run(JournalSearch, g, 3, first=True, length_cap=3)[1] for g in graphs)
        assert kernel < journal, (kernel, journal)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_all_single_partitions(self, n):
        for gid, g in corpus_all(n):
            for odd in (True, False):
                assert run(_Search, g, 1, odd=odd) == run(JournalSearch, g, 1, odd=odd), (gid, odd)

    def test_capped_single_partitions(self):
        """The k = 1 search with every trail capped at 3 or 5 edges, plain
        and odd, on the corpus up to n = 8: the only k = 1 searches whose
        cap refusal can fire, as no chain ever outgrows m edges."""
        found = 0
        for gid, g in corpus_upto(8):
            for cap in (3, 5):
                for odd in (True, False):
                    want = run(JournalSearch, g, 1, odd=odd, length_cap=cap, exact=cap == 3)
                    assert run(_Search, g, 1, odd=odd, length_cap=cap) == want, (gid, cap, odd)
                    found += len(want[0])
        assert found > 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_conformal_to_each_matching(self, n):
        """The k = 1 search under the table of each perfect matching of
        each corpus graph (and, at n = 8, of the cube as generate labels
        it): every row holds the two perms off the matching, at a loop
        vertex the loop's two darts."""
        graphs = list(corpus_all(n)) + ([("cube", generate("cube"))] if n == 8 else [])
        cases = looped = 0
        for gid, g in graphs:
            for m in perfect_matchings(g):
                want = run(JournalSearch, g, 1, avoid=m)
                assert run(_Search, g, 1, avoid=m) == want, (gid, m)
                cases += 1
                looped += g.has_loop() and bool(want[0])
        assert cases > 0 and looped > 0, (cases, looped)

    def test_pinned(self, k4, petersen):
        for g in (k4, petersen):
            first = next(JournalSearch(g, 3).solutions())

            def pins(vs):
                return {v: tuple(mk[v] for mk in first) for v in vs}

            cases = [pins([0]) if g is k4 else pins([0, 1]), pins([0, *(g.dart_vertices[d ^ 1] for d in g.vertex_darts[0])]), pins(range(g.n))]
            # vertex 1's marks rotated, then two of them swapped: the rotation
            # still completes, the swap contradicts the other pins
            rotated = tuple(first[(p + 1) % 3][1] for p in range(3))
            cases.append({**pins([0]), 1: rotated})
            cases.append({**pins(range(g.n)), 1: (first[1][1], first[0][1], first[2][1])})
            cases.append({0: (g.vertex_darts[1][0],) * 3})  # darts not at the vertex
            for fixed in cases:
                want = run(JournalSearch, g, 3, fixed=fixed)
                assert run(_Search, g, 3, fixed=fixed) == want, fixed
            fixed1 = {0: (g.vertex_darts[0][1],), 2: (g.vertex_darts[2][0],)}
            assert run(_Search, g, 1, fixed=fixed1) == run(JournalSearch, g, 1, fixed=fixed1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_random_pins_on_corpus(self, k):
        """Random pin sets on every corpus graph with n <= 8: pins taken
        from a known solution, so the search goes on past them, the same
        pins with one vertex given another perm, and random perms at random
        vertices, which mostly contradict each other."""
        rng = random.Random(1700 + k)
        perms = list(permutations(range(3), k))
        completed = refused = 0
        for n in (2, 4, 6, 8):
            for gid, g in corpus_all(n):
                sols = run(JournalSearch, g, k)[0]
                vs = rng.sample(range(n), rng.randint(1, n))

                def darts(v, perm):
                    return tuple(g.vertex_darts[v][s] for s in perm)

                cases = [{v: darts(v, rng.choice(perms)) for v in vs}]
                if sols:
                    sol = rng.choice(sols)
                    known = {v: tuple(mk[v] for mk in sol) for v in vs}
                    w = rng.choice(vs)
                    other = rng.choice([p for p in perms if darts(w, p) != known[w]])
                    cases += [known, {**known, w: darts(w, other)}]
                for fixed in cases:
                    want = run(JournalSearch, g, k, fixed=fixed)
                    assert run(_Search, g, k, fixed=fixed) == want, (gid, fixed)
                    completed += bool(want[0])
                    refused += not want[0] and want[1] == 0
        assert completed > 40 and refused > 40, (completed, refused)

    def test_order_matches_journal_pick(self):
        """_order, computed once, is the order the journal's linear scan
        picks one vertex at a time, with and without pins."""
        rng = random.Random(17)
        for gid, g in corpus_upto(12):
            for pins in ([], rng.sample(range(g.n), rng.randint(1, g.n))):
                j = JournalSearch(g, 1)
                want = sorted(pins)
                for v in want:
                    j._set_assigned(v, True)
                while len(want) < g.n:
                    want.append(j._next_vertex())
                    j._set_assigned(want[-1], True)
                assert _order(g, pins) == want, (gid, pins)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(RELABEL_POOL), st.randoms(use_true_random=False))
    def test_relabelled(self, g, rng):
        h = relabelled(g, rng)
        for cap in (None, 3):
            want = run(JournalSearch, h, 3, first=True, length_cap=cap, exact=cap == 3)
            assert run(_Search, h, 3, first=True, length_cap=cap) == want
        if h.n <= 8:
            assert run(_Search, h, 1) == run(JournalSearch, h, 1)


def tables(g, k, rng):
    """(name, table) pairs for a search with k partitions on g: no table,
    pins at a random vertex set (taken from a known solution when there is
    one, else random perms), and the conformal rows of a perfect matching
    (k = 1) or of a proper coloring's three color classes (k = 3)."""
    out = [("none", None)]
    sol = next(_Search(g, k).solutions(), None)
    vs = rng.sample(range(g.n), rng.randint(1, g.n))
    if sol is not None:
        fixed = {v: tuple(mk[v] for mk in sol) for v in vs}
    else:
        perms = list(permutations(range(3), k))
        fixed = {v: tuple(g.vertex_darts[v][s] for s in rng.choice(perms)) for v in vs}
    out.append(("pinned", _pinned(g, fixed)))
    if k == 1:
        m = next(perfect_matchings(g), None)
        if m is not None:
            out.append(("conformal", _conformal_rows(g, [m])))
    else:
        coloring = proper_3_edge_coloring(g)
        if coloring is not None:
            out.append(("conformal", _conformal_rows(g, color_classes(coloring))))
    return out


class TestLazyRows:
    """The kernel builds a vertex's choice row when it first enters the
    vertex.  Every row it builds equals the row of the whole plan it
    replaced (journal_search.whole_plan_choices), the k = 3 root row
    without a table cut to its first perm, and a search that stops early
    builds only the rows it reached."""

    def assert_rows(self, g, k, allowed, mode, where):
        """Run one search (mode "first": to its first solution, "cap3": the
        same with every trail capped at 3 edges, "all": to the end), check
        each row it built and return how many it built."""
        s = _Search(g, k, length_cap=3 if mode == "cap3" else None, allowed=allowed)
        if mode == "all":
            for _ in s.solutions():
                pass
        else:
            next(s.solutions(), None)
        if k == 3 and g.has_loop():
            assert s.rows == [], where  # refused before any row
            return 0
        want = whole_plan_choices(g, k, allowed)
        root = _order(g, {v for v, row in (allowed or {}).items() if len(row) <= 1})[0]
        built = 0
        for v, row in enumerate(s.rows):
            if row is not None:
                cut = k == 3 and allowed is None and v == root
                assert row == (want[v][:1] if cut else want[v]), (where, v)
                built += 1
        return built

    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_match_whole_plan_on_corpus(self, k):
        rng = random.Random(2700 + k)
        built = {}
        for gid, g in corpus_upto(12):
            for name, allowed in tables(g, k, rng):
                for mode in ("first", "cap3") if k == 3 else ("first",):
                    n = self.assert_rows(g, k, allowed, mode, (gid, name, mode))
                    built[name] = built.get(name, 0) + n
        assert all(built.get(name, 0) > 1000 for name in ("none", "pinned", "conformal")), built

    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_match_whole_plan_run_to_the_end(self, k):
        rng = random.Random(2710 + k)
        for n in (2, 4, 6, 8):
            for gid, g in corpus_all(n):
                for name, allowed in tables(g, k, rng):
                    self.assert_rows(g, k, allowed, "all", (gid, name))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from(RELABEL_POOL), st.randoms(use_true_random=False))
    def test_rows_match_whole_plan_relabelled(self, g, rng):
        h = relabelled(g, rng)
        for k in (1, 3):
            for name, allowed in tables(h, k, rng):
                for mode in ("first", "cap3") if k == 3 else ("first",):
                    self.assert_rows(h, k, allowed, mode, (name, mode))

    def test_length3_refusal_builds_fewer_rows(self):
        """Every non-bipartite simple n = 12 graph refuses the length-3
        search before the kernel has entered all of its vertices."""
        from copnc.graph import is_bipartite

        refused = 0
        for gid, g in corpus_simple12():
            if not is_bipartite(g)[0]:
                assert self.assert_rows(g, 3, None, "cap3", gid) < g.n, gid
                refused += 1
        assert refused == 80


class TestConformalTable:
    """The triple search under the table that keeps partition c off color
    class c at every vertex (the two 3-cycles of its colors) finds exactly
    the pairwise compatible triples drawn from the three pools of
    partitions conformal to the color classes, each once."""

    def test_color_class_rows_on_corpus(self):
        graphs = 0
        for n in (2, 4, 6, 8):
            for gid, g in corpus_all(n):
                coloring = proper_3_edge_coloring(g)
                if coloring is None:
                    continue
                classes = color_classes(coloring)
                # each pool member as its marking and its (vertex, marked edge) set
                pools = [
                    [(p.marked, frozenset(enumerate(p.marked_edges()))) for p in enumerate_nops(g, conformal_to=c)]
                    for c in classes
                ]
                want = set()
                for m1, s1 in pools[0]:
                    for m2, s2 in pools[1]:
                        if s1.isdisjoint(s2):
                            want.update((m1, m2, m3) for m3, s3 in pools[2] if s1.isdisjoint(s3) and s2.isdisjoint(s3))
                got = list(_Search(g, 3, allowed=_conformal_rows(g, classes)).solutions())
                assert len(got) == len(set(got)) and set(got) == want, gid
                graphs += 1
        assert graphs == 24


class TestLengthThreeTriples:
    def test_matches_generic_search_on_small_graphs(self):
        pool = [(gid, g) for n in (2, 4, 6, 8, 10) for gid, g in corpus_all(n)]
        pool += corpus_simple12()
        for gid, g in pool:
            via_pairs = length3_by_pairs(g)
            via_search = find_length3_triple(g)
            assert (via_pairs is None) == (via_search is None), gid
            for triple in (via_pairs, via_search):
                if triple is not None:
                    assert all(set(p.lengths()) == {3} for p in triple), gid
                    assert not agreement(triple), gid

    def test_k33_exists_k4_not(self, k33, k4):
        assert find_length3_triple(k33) is not None
        assert find_length3_triple(k4) is None

    def test_equivalence_with_bipartiteness_over_corpus(self):
        """Empirical sweep over every corpus graph, multigraphs included:
        an all-length-3 compatible triple exists exactly for the bipartite
        members (22 of which carry parallel edges)."""
        from conftest import corpus_upto
        from copnc.graph import is_bipartite

        bip_multi = 0
        for gid, g in corpus_upto(12):
            bip, _ = is_bipartite(g)
            assert bip == (find_length3_triple(g) is not None), gid
            if bip:
                pairs = [(min(u, v), max(u, v)) for u, v in g.endpoints]
                if len(set(pairs)) != g.m:
                    bip_multi += 1
        assert bip_multi >= 20


class TestFanRaspaud:
    def test_bipartite_disjoint_classes(self, k33):
        from copnc.construct import bipartite_triple

        t = bipartite_triple(k33)
        m1, m2, m3 = fan_raspaud_witness(t.partitions)
        assert m1 & m2 == m1 & m3 == m2 & m3 == frozenset()

    def test_petersen_triple(self, petersen):
        from copnc.families import petersen_triple

        m1, m2, m3 = fan_raspaud_witness(petersen_triple())
        assert m1 & m2 & m3 == frozenset()

    def test_rejects_incompatible(self, k4):
        p = enumerate_nops(k4)[0]
        with pytest.raises(ValueError):
            fan_raspaud_witness((p, p, p))


class TestCompleteSystem:
    def test_triple_is_a_complete_system(self, k4, petersen):
        for g in (k4, petersen):
            sys3 = complete_system(g, 3)
            assert sys3 is not None and len(sys3) == 3

    def test_loop_graph_has_none(self, dumbbell):
        assert complete_system(dumbbell, 3) is None

    def test_order_validation(self, k4):
        with pytest.raises(ValueError):
            complete_system(k4, 2)

    def test_more_picks_than_pool(self, prism):
        """k = 300 from the prism's 226 partitions: no branch can pick
        enough, so the search closes its root instead of running to the
        node cap."""
        assert len(enumerate_nops(prism)) == 226
        assert complete_system(prism, 300, cap=1000) is None
        assert complete_system(prism, 226, cap=1000) == sorted(enumerate_nops(prism), key=lambda p: p.trails)

    def test_matches_recursive_search(self, k4, k33, prism, cube):
        """The explicit stack picks in the order of the recursion it
        replaced, kept here as the oracle."""

        def recursive(g, k):
            pool = sorted(enumerate_nops(g), key=lambda p: p.trails)
            need = [frozenset(g.edges_at(v)) for v in range(g.n)]

            def rec(start, chosen):
                if len(chosen) == k:
                    ok = all(need[v] <= {p.marked_edge(v) for p in chosen} for v in range(g.n))
                    return list(chosen) if ok else None
                for v in range(g.n):
                    if len(need[v] - {p.marked_edge(v) for p in chosen}) > k - len(chosen):
                        return None
                for i in range(start, len(pool)):
                    hit = rec(i + 1, chosen + [pool[i]])
                    if hit is not None:
                        return hit
                return None

            return rec(0, [])

        for g in (k4, k33, prism, cube):
            for k in (3, 4, 5):
                want = recursive(g, k)
                got = complete_system(g, k)
                assert got == want
                if got is not None:
                    assert [p.marked for p in got] == [p.marked for p in want]

    def test_long_system_needs_no_recursion(self, cube):
        """k = 1,200 from the cube's 1,824 partitions: one open search node
        per chosen partition, far deeper than the recursion limit.  The
        recursion it replaced, run with a raised limit, picks the first
        1,199 partitions and then the 1,217th."""
        import sys

        limit = sys.getrecursionlimit()
        got = complete_system(cube, 1200)
        pool = sorted(enumerate_nops(cube), key=lambda p: p.trails)
        assert got == pool[:1199] + [pool[1216]]
        for v in range(cube.n):
            assert {p.marked_edge(v) for p in got} == set(cube.edges_at(v))
        assert sys.getrecursionlimit() == limit


class TestChecks:
    def test_conj25_sweep_long_ladder(self, tmp_path):
        import json

        from conftest import circular_ladder
        from copnc.cli import main

        n, edges = circular_ladder(600)
        src = tmp_path / "ladder.edges"
        src.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--input", f"@{src}", "--check", "conj25", "--out", str(out)]) == 0
        (rec,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert rec["n"] == 1200 and rec["triple_found"] and rec["agree"]

    def test_conj25_on_petersen(self, petersen):
        rep = check_graph(petersen, "conj25", "pet")
        assert rep["bridgeless"] and rep["triple_found"] and rep["agree"]

    def test_conj25_on_bridged(self, one_bridge):
        rep = check_graph(one_bridge, "conj25", "b1")
        assert not rep["bridgeless"] and not rep["triple_found"] and rep["agree"]

    def test_thm12_bipartite_vs_not(self, k33, k4):
        assert check_graph(k33, "thm12")["agree"]
        assert check_graph(k4, "thm12")["agree"]

    def test_thm5(self, loop_claw, theta):
        for g in (loop_claw, theta):
            assert check_graph(g, "thm5")["agree"]
