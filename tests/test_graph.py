import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copnc.graph import (
    BadParameter,
    CubicGraph,
    Malformed,
    NonCubic,
    bridges,
    color_classes,
    generate,
    has_perfect_matching,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
    perfect_matchings,
    proper_3_edge_coloring,
    to_graph6,
)

from copnc.corpus import corpus_all, corpus_simple12

from edge_list_oracle import parse_edge_list_by_lines, to_edge_list
from conftest import (
    brute_perfect_matchings,
    circular_ladder,
    construct_workload_graphs,
    corpus_upto,
    digon_ladder,
    generalized_petersen3,
    moebius_ladder,
    pairing_model,
    relabelled,
    truncated_ladder,
)

CORPUS = corpus_all(10) + corpus_simple12()

# the benchmark's shapes at n = 60 and n ~ 200, in generator labelling
SHAPES = [
    build(r)
    for build, small, large in (
        (circular_ladder, 30, 100),
        (moebius_ladder, 30, 100),
        (generalized_petersen3, 30, 100),
        (truncated_ladder, 10, 33),
        (digon_ladder, 15, 50),
    )
    for r in (small, large)
]


class TestBuild:
    def test_theta(self, theta):
        assert (theta.n, theta.m) == (2, 3)

    def test_k4(self, k4):
        assert (k4.n, k4.m) == (4, 6)

    def test_degree_deficit(self):
        with pytest.raises(NonCubic) as err:
            CubicGraph(2, [(0, 1), (0, 1)])
        assert (err.value.vertex, err.value.degree) == (0, 2)

    def test_loop_occupies_two_slots(self, dumbbell):
        assert dumbbell.m == 3
        assert dumbbell.edges_at(0) == (0, 0, 1)

    def test_slot_count_invariant(self, petersen):
        assert all(len(petersen.vertex_darts[v]) == 3 for v in range(10))
        assert 2 * petersen.m == 3 * petersen.n

    @pytest.mark.parametrize("bad", [(0, 1.7), (1.0, 0), (0, "1"), (None, 1)])
    def test_non_int_endpoint_is_malformed(self, bad):
        # a float, str or None endpoint names its edge; none is truncated to an int
        with pytest.raises(Malformed, match=r"^edge 1 endpoints are not ints"):
            CubicGraph(2, [(0, 1), bad, (0, 1)])

    def test_list_pairs_become_tuples(self, theta):
        g = CubicGraph(2, [[0, 1], [0, 1], [0, 1]])
        assert g == theta and g.endpoints == ((0, 1),) * 3


def parse_graph6_by_bits(line):
    """The graph6 decoder the library ran before its one-string bit scan:
    every bit unpacked into a list, every vertex pair visited in column
    order.  The oracle for parse_graph6."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Malformed("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise Malformed("graph6 characters out of range")
    if data[0] == 63:
        if len(data) < 4:
            raise Malformed("truncated graph6 size field")
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    else:
        n, body = data[0], data[1:]
    if n == 0:
        raise Malformed("graph6 graph has no vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise Malformed(f"graph6 body too short for n={n}")
    bits = []
    for b in body[:need]:
        bits.extend((b >> k) & 1 for k in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    edges.sort()
    return CubicGraph(n, edges)


class TestGraph6:
    def test_k4_is_c_tilde(self, k4):
        assert to_graph6(k4) == "C~"
        back = parse_graph6("C~")
        assert (back.n, back.m) == (4, 6)
        assert back.endpoints == tuple(
            sorted((u, v) for u in range(4) for v in range(u + 1, 4))
        )

    def test_parse_order_lexicographic(self, petersen):
        back = parse_graph6(to_graph6(petersen))
        assert list(back.endpoints) == sorted(back.endpoints)

    def test_petersen_roundtrip_against_reference(self, petersen):
        nx = pytest.importorskip("networkx")
        line = to_graph6(petersen)
        ref = nx.to_graph6_bytes(nx.Graph(list(petersen.endpoints)), header=False)
        assert line == ref.decode().strip()
        back = parse_graph6(line)
        assert (back.n, back.m) == (10, 15)

    def test_star_is_noncubic(self):
        nx = pytest.importorskip("networkx")
        line = nx.to_graph6_bytes(nx.star_graph(3), header=False).decode().strip()
        with pytest.raises(NonCubic):
            parse_graph6(line)

    @pytest.mark.parametrize("line", ["?", "~???", ">>graph6<<?"])
    def test_no_vertices_rejected(self, line):
        with pytest.raises(Malformed, match="no vertices"):
            parse_graph6(line)

    def test_multigraph_rejected_by_encoder(self, theta):
        with pytest.raises(Malformed):
            to_graph6(theta)

    def test_garbage_rejected(self):
        with pytest.raises(Malformed):
            parse_graph6("")
        with pytest.raises(Malformed):
            parse_graph6("C~\x19")  # character below the graph6 range
        with pytest.raises(Malformed):
            parse_graph6("I")  # declares n=10 but carries no body

    def test_header_prefix_accepted(self, k4):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    def test_matches_bit_list_decoder(self):
        """The corpus lines, random cubic graphs up to n = 70 (past the
        one-byte size field), random bodies (mostly not cubic) with their
        padding bits set, and random strings: the same graph or the same
        error as the decoder that unpacked every bit."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(6)
        lines = [to_graph6(g) for _, g in corpus_simple12()]
        for n in (4, 8, 30, 62, 64, 70):
            g = nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30))
            lines.append(nx.to_graph6_bytes(g, header=False).decode().strip())
        for _ in range(300):
            n = rng.choice([1, 2, 3, 4, 5, 6, 7, 8])
            need = (n * (n - 1) // 2 + 5) // 6
            line = chr(n + 63) + "".join(chr(63 + rng.randrange(64)) for _ in range(need + rng.randrange(-1, 2)))
            lines += [line, "".join(chr(rng.randrange(60, 130)) for _ in range(rng.randrange(1, 6)))]
        for line in lines:
            assert parse_outcome(parse_graph6, line) == parse_outcome(parse_graph6_by_bits, line), line


class TestEdgeList:
    def test_roundtrip(self, dumbbell):
        text = to_edge_list(dumbbell)
        assert parse_edge_list(text) == [dumbbell]

    def test_multi_record(self, theta, dumbbell):
        text = to_edge_list(theta) + "# comment\n" + to_edge_list(dumbbell)
        assert parse_edge_list(text) == [theta, dumbbell]

    def test_truncated(self):
        with pytest.raises(Malformed):
            parse_edge_list("2 3\n0 1\n0 1\n")

    @pytest.mark.parametrize("text", ["0 0\n", "-2 -3\n", "2 2\n0 1\n0 1\n", "2000000 0\n"])
    def test_header_not_cubic(self, text):
        # a cubic graph has n > 0 and 3n = 2m; the header is checked first
        with pytest.raises(Malformed):
            parse_edge_list(text)


def parse_outcome(parse, text):
    """The graphs parse reads from text, or the type and message of the
    ValueError (Malformed, NonCubic) it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# whitespace that str.split splits at: the line boundaries of
# str.splitlines, and others, which a comment runs through
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = LINE_ENDS + [" ", "\t", "\x1f", "\xa0", "\u3000"]
SMALL = [generate(name) for name in ("theta", "k4", "k33", "prism")] + [g for _, g in corpus_all(4)]


@st.composite
def edge_list_texts(draw):
    """Edge-list records of small graphs, their tokens joined by random
    separators with comments between them, and now and then a token
    replaced, dropped or added."""
    tokens = [t for g in draw(st.lists(st.sampled_from(SMALL), max_size=3)) for t in to_edge_list(g).split()]
    junk = st.sampled_from(["x", "1.5", "-1", "0", "7", "+2", "1_0", "#", "0#1", "\u0663", "99"])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(tokens)))
        action = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if action == "add" or not tokens:
            tokens.insert(i, draw(junk))
        elif action == "replace":
            tokens[min(i, len(tokens) - 1)] = draw(junk)
        else:
            del tokens[min(i, len(tokens) - 1)]
    seps = st.one_of(
        st.sampled_from(SEPARATORS),
        st.builds(lambda a, c, b: a + "#" + c + b, st.sampled_from(SEPARATORS), st.sampled_from(["", " c", "1 2", "#", "\x1f3 3"]), st.sampled_from(LINE_ENDS)),
    )
    out = draw(seps)
    for t in tokens:
        out += t + draw(seps)
    return out


class TestEdgeListTokenizer:
    """parse_edge_list, one comment regex and one split over the whole
    text, reads what the line-by-line tokenizer read (edge_list_oracle.py),
    and raises the same errors with the same messages."""

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "\n\n2 3\n\n0 1\n0 1\n0 1\n\n",
            "2 3 # header\n0 1#a\n0 1 # b # c\n0 1",
            "2 3\r\n0 1\r\n0 1\r\n0 1\r\n",
            "2 3\x0b0 1\x1c0 1\u20280 1",
            "2 3#c\x850 1#c\u20290 1#c\x1e0 1",
            "2 3\n0 1 #c\x1f 0 1\n0 1\n",  # \x1f splits words but ends no line
            "2\t3\n0\t1\n0\xa01\n0\u30001\n",
            "2 3\n0 1\n0 x\n0 1\n",
            "2 3\n0 1\n0 1\n0 1\nx 3\n",
            "2 3\n0 1\n0 1\n0 1\n2 3\n0 1\n0 1.0\n",
            "2 3\n0 1\n0 1\n0\n",
            "2 3\n0 1\n0 1\n",
            "2 y\n0 1\n",
            "3 3\n0 1\n0 1\n",
            "2 3\n0 1\n0 1\n0 2\n",
            "2 3\n0 0\n0 1\n1 1\n",
            "2 3\n0 1\n0 1\n1 1\n",
            "2 3\n0 1\n0#1\n0 1\n",
            "4 6 0 1 0 2 0 3 1 2 1 3 2 3 2 3 0 1 0 1 0 1",
            "2 3\n+0 1\n0 1_0\n\u0660 \u0661\n",
        ],
    )
    def test_cases(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_by_lines, text)

    def test_corpus_files(self):
        from copnc.corpus import MULTI_SIZES, _read

        for n in MULTI_SIZES:
            text = _read(f"corpus_all_n{n:02d}.edges")
            assert parse_edge_list(text) == parse_edge_list_by_lines(text), n

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edge_list_texts())
    def test_records(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_by_lines, text)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(alphabet="0123 -#x" + "".join(SEPARATORS), max_size=40))
    def test_raw_text(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(parse_edge_list_by_lines, text)


class TestGenerate:
    def test_flower3_is_tietze_size(self):
        g = generate("flower", 3)
        assert (g.n, g.m) == (12, 18)

    def test_flower5_snark(self):
        g = generate("flower", 5)
        assert g.n == 20
        assert proper_3_edge_coloring(g) is None

    def test_goldberg3_size(self):
        g = generate("goldberg", 3)
        assert (g.n, g.m) == (24, 36)

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_snark_families_validate(self, k):
        for family in ("flower", "goldberg"):
            g = generate(family, k)
            assert not bridges(g)
            assert proper_3_edge_coloring(g) is None

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            generate("flower", 4)
        with pytest.raises(BadParameter):
            generate("nonesuch")
        with pytest.raises(BadParameter):
            generate("k4", 3)

    def test_generator_determinism(self):
        assert generate("flower", 7).endpoints == generate("flower", 7).endpoints


class TestBipartite:
    def test_k33(self, k33):
        bip, side = is_bipartite(k33)
        assert bip
        assert {side[v] for v in range(3)} != {side[v] for v in range(3, 6)}

    def test_petersen(self, petersen):
        assert is_bipartite(petersen) == (False, None)

    def test_theta(self, theta):
        assert is_bipartite(theta)[0]

    def test_loop_graph(self, dumbbell):
        assert not is_bipartite(dumbbell)[0]


class TestBridges:
    def test_k4_and_petersen_bridgeless(self, k4, petersen):
        assert bridges(k4) == frozenset()
        assert bridges(petersen) == frozenset()

    def test_one_bridge(self, one_bridge):
        assert bridges(one_bridge) == frozenset({0})

    def test_loop_claw(self, loop_claw):
        assert bridges(loop_claw) == frozenset({0, 1, 2})

    def test_digon_is_not_bridge(self):
        # 4-cycle with two opposite sides doubled
        g = CubicGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])
        assert bridges(g) == frozenset()

    def test_matches_networkx_on_corpora(self):
        nx = pytest.importorskip("networkx")
        for name, g in CORPUS:
            # a bridge is a single edge, never one of a parallel pair
            simple = nx.Graph((u, v) for u, v in g.endpoints if u != v)
            pairs = set(nx.bridges(simple))
            expect = frozenset(
                e
                for e, (u, v) in enumerate(g.endpoints)
                if ((u, v) in pairs or (v, u) in pairs)
                and sum(1 for ab in g.endpoints if set(ab) == {u, v}) == 1
            )
            assert bridges(g) == expect, name

    def test_long_ladder_leaves_recursion_limit(self):
        import sys

        limit = sys.getrecursionlimit()
        n, edges = circular_ladder(1500)
        assert bridges(CubicGraph(n, edges)) == frozenset()
        assert sys.getrecursionlimit() == limit
        # a chain of 1500 digons with a loop vertex at each end: every edge
        # outside the digons and loops is a bridge, deep in the search
        k = 1500
        a, b = 2 * k, 2 * k + 1
        edges = [(2 * i, 2 * i + 1) for i in range(k) for _ in range(2)]
        edges += [(2 * i + 1, 2 * i + 2) for i in range(k - 1)]
        edges += [(a, a), (a, 0), (b, b), (b, 2 * k - 1)]
        g = CubicGraph(2 * k + 2, edges)
        expect = frozenset(range(2 * k, 3 * k - 1)) | {3 * k, 3 * k + 2}
        assert bridges(g) == expect
        assert sys.getrecursionlimit() == limit


class TestMatchings:
    def test_theta_three_single_edges(self, theta):
        ms = list(perfect_matchings(theta))
        assert sorted(map(sorted, ms)) == [[0], [1], [2]]

    def test_k4_three(self, k4):
        assert len(list(perfect_matchings(k4))) == 3

    def test_petersen_six_against_bruteforce(self, petersen):
        ms = set(perfect_matchings(petersen))
        assert len(ms) == 6
        assert ms == brute_perfect_matchings(petersen)

    def test_each_matching_is_perfect(self, cube):
        for m in perfect_matchings(cube):
            covered = [0] * cube.n
            for e in m:
                u, v = cube.endpoints[e]
                covered[u] += 1
                covered[v] += 1
            assert covered == [1] * cube.n

    def test_no_matching(self, loop_claw):
        assert list(perfect_matchings(loop_claw)) == []

    def test_loops_excluded_but_dumbbell_matchable(self, dumbbell):
        assert [sorted(m) for m in perfect_matchings(dumbbell)] == [[1]]

    def test_same_sequence_as_recursion(self):
        """The full sequence, also where perfect_matchings refuses pairs
        that strand a neighbour: every corpus graph with n <= 12 and
        seeded pairing-model multigraphs with n <= 12."""
        import random

        graphs = [g for _, g in corpus_upto(10, include_simple12=False)]
        assert len(graphs) == 483  # every multigraph with n <= 10
        graphs += [g for _, g in corpus_simple12()]
        rng = random.Random(2013)
        graphs += [pairing_model(rng, n) for n in (2, 4, 6, 8, 10, 12) for _ in range(40)]
        empty = 0
        for g in graphs:
            want = list(recursive_perfect_matchings(g))
            assert list(perfect_matchings(g)) == want
            empty += not want
        assert empty > 100

    def test_long_ladder_leaves_recursion_limit(self):
        import sys

        limit = sys.getrecursionlimit()
        g = CubicGraph(*circular_ladder(5000))
        assert has_perfect_matching(g)
        assert sys.getrecursionlimit() == limit


def recursive_perfect_matchings(g):
    """The backtracking enumerator as it was written with one generator
    frame per matched pair and no pruning: the order oracle for
    perfect_matchings."""
    matched = [False] * g.n
    chosen = []

    def rec():
        v = next((v for v in range(g.n) if not matched[v]), -1)
        if v < 0:
            yield frozenset(chosen)
            return
        for d in g.vertex_darts[v]:
            e = d >> 1
            w = g.other_end(e, v)
            if w == v:
                continue
            if matched[w]:
                continue
            matched[v] = matched[w] = True
            chosen.append(e)
            yield from rec()
            chosen.pop()
            matched[v] = matched[w] = False

    return rec()


def coloring_by_scan(g, undos=None):
    """The coloring search with its edge pick done by scanning every edge:
    the oracle for the pick from class heaps.  A list given as undos gets
    each edge whose color the search undoes."""
    free_of = (3, 2, 2, 1, 2, 1, 1, 0)
    if g.has_loop():
        return None
    m = g.m
    color = [-1] * m
    used = [0] * g.n

    def pick():
        best, best_free = -1, 4
        for e in range(m):
            if color[e] >= 0:
                continue
            u, v = g.endpoints[e]
            free = free_of[used[u] | used[v]]
            if free <= 1:
                return e
            if free < best_free:
                best, best_free = e, free
        return best

    if m == 0:
        return ()
    u0, w0 = g.endpoints[0]
    color[0] = 0
    used[u0] |= 1
    used[w0] |= 1
    e1 = min(e for e in g.edges_at(u0) if e != 0)
    u, v = g.endpoints[e1]
    color[e1] = 1
    used[u] |= 2
    used[v] |= 2
    stack = []
    e, first = pick(), 0
    while e >= 0:
        u, v = g.endpoints[e]
        avail = ~(used[u] | used[v]) & 7
        c = next((c for c in (0, 1, 2) if c >= first and avail >> c & 1), -1)
        if c >= 0:
            color[e] = c
            used[u] |= 1 << c
            used[v] |= 1 << c
            stack.append(e)
            e, first = pick(), 0
            continue
        if not stack:
            return None
        e = stack.pop()
        if undos is not None:
            undos.append(e)
        u, v = g.endpoints[e]
        c = color[e]
        color[e] = -1
        used[u] &= ~(1 << c)
        used[v] &= ~(1 << c)
        first = c + 1
    return tuple(color)


class TestColoring:
    def test_matches_scan_oracle_on_corpora(self):
        for name, g in CORPUS:
            assert proper_3_edge_coloring(g) == coloring_by_scan(g), name

    def test_matches_scan_oracle_on_shapes(self):
        for n, edges in SHAPES:
            g = CubicGraph(n, edges)
            col = proper_3_edge_coloring(g)
            assert col is not None
            assert col == coloring_by_scan(g)

    def test_matches_scan_oracle_when_it_backtracks(self):
        """The undo path refiles the undone edge and the edges beside it:
        on seeded relabellings of the corpora with n <= 12, each one on
        which the search undoes colors and still finds a coloring."""
        rng = random.Random(2401)
        cases, undone = 0, 0
        for name, g in corpus_upto(12):
            for _ in range(3):
                h = relabelled(g, rng)
                undos = []
                want = coloring_by_scan(h, undos)
                if want is not None and undos:
                    assert proper_3_edge_coloring(h) == want, name
                    cases += 1
                    undone = max(undone, len(undos))
        assert (cases, undone) == (97, 38)

    def test_undone_edge_is_refiled_when_its_class_is_unchanged(self):
        """A relabelling of n12_0042 (1 of 17,040 seeded relabellings of
        the corpora) where an undone edge has lost its heap entry and
        keeps its class: the search must refile it anyway."""
        edges = [
            (10, 7), (1, 8), (2, 11), (10, 8), (7, 6), (10, 2), (9, 2), (11, 7), (6, 5),
            (4, 0), (3, 5), (9, 3), (6, 1), (1, 4), (5, 9), (3, 0), (0, 8), (4, 11),
        ]
        g = CubicGraph(12, edges)
        undos = []
        want = coloring_by_scan(g, undos)
        assert want is not None and len(undos) == 40
        assert proper_3_edge_coloring(g) == want

    @pytest.mark.parametrize("seed", [2001, 7])
    def test_matches_scan_oracle_on_benchmark_shapes(self, seed):
        for n, edges in construct_workload_graphs(seed)[:5]:
            want = coloring_by_scan(CubicGraph(n, edges))
            assert want is not None
            assert proper_3_edge_coloring(CubicGraph(n, edges)) == want

    def test_matches_scan_oracle_on_snarks(self):
        for g in (generate("petersen"), generate("flower", 5), generate("flower", 7), generate("goldberg", 5)):
            assert proper_3_edge_coloring(g) is None
            assert coloring_by_scan(g) is None

    def test_k33_three_colorable(self, k33):
        col = proper_3_edge_coloring(k33)
        assert col is not None
        for v in range(k33.n):
            assert sorted(col[e] for e in k33.edges_at(v)) == [0, 1, 2]

    def test_petersen_class_two(self, petersen):
        assert proper_3_edge_coloring(petersen) is None

    def test_k4(self, k4):
        assert proper_3_edge_coloring(k4) is not None

    def test_loops_uncolorable(self, dumbbell):
        assert proper_3_edge_coloring(dumbbell) is None

    def test_classes_are_disjoint_perfect_matchings(self, cube):
        col = proper_3_edge_coloring(cube)
        classes = color_classes(col)
        all_matchings = set(perfect_matchings(cube))
        for cls in classes:
            assert cls in all_matchings
        assert classes[0] | classes[1] | classes[2] == frozenset(range(cube.m))
