import copy
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import copnc
from copnc import families
from copnc.families import (
    _FAMILY,
    FamilyDataError,
    _check_triple,
    _frozen,
    _replay,
    derive_petersen,
    flower_boundary_ok,
    flower_triple,
    goldberg_triple,
    petersen_triple,
    regenerate_check,
)
from copnc.graph import BadParameter, generate
from copnc.partition import (
    CycleError,
    agreement,
    is_odd,
    length_profile,
    trails_from_marking,
)
from copnc.search import fan_raspaud_witness

from conftest import graph_automorphisms
from family_replay import flower_replay, goldberg_replay
from lemma_checks import edge_role_audit


def flower_roles():
    """The frozen flower base and gadget as role tables {(x, i): (y, j)},
    the shape of tests/family_replay.py."""
    role = lambda s: (s[0], int(s[1:]))
    d = families._data()["flower"]
    return tuple([{role(r): role(s) for r, s in tab.items()} for tab in d[key]] for key in ("base", "gadget"))


def block_ids(tables):
    """Role tables in block ids: claw i is block i-1, with u, v, w, t at
    offsets 0-3."""
    bid = lambda role: 4 * (role[1] - 1) + "uvwt".index(role[0])
    return [{bid(r): bid(s) for r, s in tab.items()} for tab in tables]


def goldberg_data():
    d = families._data()["goldberg"]
    return tuple([{int(v): w for v, w in tab.items()} for tab in d[key]] for key in ("base", "gadget"))


@pytest.fixture
def corrupt(monkeypatch):
    """Swap in a deep copy of the frozen data, changed by the given
    function, for the rest of the test."""

    def apply(change):
        data = copy.deepcopy(families._data())
        change(data)
        monkeypatch.setattr(families, "_cache", data)

    return apply


class TestPetersen:
    def test_profile(self):
        for p in petersen_triple():
            assert length_profile(p) == (5, 3, 3, 3, 1)
            assert Counter(p.lengths()) == {5: 1, 3: 3, 1: 1}

    def test_pairwise_compatible(self):
        assert agreement(petersen_triple()) == []

    def test_partitions_pairwise_isomorphic(self, petersen):
        # profiles agree and some graph automorphism carries one partition
        # onto the other
        triple = petersen_triple()
        autos = graph_automorphisms(petersen)
        lut = {}
        for e, (a, b) in enumerate(petersen.endpoints):
            lut[(a, b)] = e
            lut[(b, a)] = e

        def image_key(p, sigma):
            keys = []
            for t_vs, t_es in p.trails:
                vs = tuple(sigma[v] for v in t_vs)
                es = tuple(lut[(sigma[a], sigma[b])] for a, b in
                           (petersen.endpoints[e] for e in t_es))
                keys.append(min((vs, es), (vs[::-1], es[::-1])))
            return tuple(sorted(keys))

        for i in range(3):
            for j in range(i + 1, 3):
                target = triple[j].trails
                assert any(
                    image_key(triple[i], sigma) == target for sigma in autos
                ), (i, j)

    def test_matches_derivation(self):
        frozen = petersen_triple()
        derived = derive_petersen()
        assert [p.trails for p in frozen] == [p.trails for p in derived]


class TestFlower:
    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 13, 15])
    def test_validates(self, k):
        triple = flower_triple(k)
        g = generate("flower", k)
        for p in triple:
            assert p.graph == g
            assert is_odd(p)
            assert sum(p.lengths()) == 3 * len(p.trails)
        assert agreement(triple) == []

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 13, 15])
    def test_boundary_marks_hold(self, k):
        assert flower_boundary_ok(k, flower_triple(k))

    def test_base_marks_verbatim(self):
        # the eight boundary vertices of the k=3 member, all three
        # partitions, checked against the boundary table entry by entry
        k = 3
        g = generate("flower", k)
        u = lambda i: i - 1
        v = lambda i: k + i - 1
        w = lambda i: 2 * k + i - 1
        t = lambda i: 3 * k + i - 1
        lut = {}
        for e, (a, b) in enumerate(g.endpoints):
            lut[(a, b)] = e
            lut[(b, a)] = e
        p1, p2, p3 = flower_triple(3)
        expected = [
            (p1, [(u(1), v(1)), (v(1), w(1)), (w(1), w(2)), (t(1), t(2)),
                  (u(2), u(3)), (v(2), u(2)), (w(2), v(2)), (t(2), t(1))]),
            (p2, [(u(1), u(k)), (v(1), t(1)), (w(1), v(1)), (t(1), w(k)),
                  (u(2), v(2)), (v(2), t(2)), (w(2), w(3)), (t(2), t(3))]),
            (p3, [(u(1), u(2)), (v(1), u(1)), (w(1), t(k)), (t(1), v(1)),
                  (u(2), u(1)), (v(2), w(2)), (w(2), w(1)), (t(2), v(2))]),
        ]
        for p, marks in expected:
            for vertex, nbr in marks:
                assert p.marked_edge(vertex) == lut[(vertex, nbr)]

    def test_odd_edge_side_conditions(self):
        g = generate("flower", 3)
        lut = {}
        for e, (a, b) in enumerate(g.endpoints):
            lut[(a, b)] = e
            lut[(b, a)] = e
        p1, p2, p3 = flower_triple(3)
        e_u12 = lut[(0, 1)]
        e_t12 = lut[(9, 10)]
        odd = lambda p: {e for _, es in p.trails for e in es[1::2]}
        assert e_u12 in odd(p1)  # odd edge of the first partition
        assert e_t12 in odd(p2)
        assert e_t12 in odd(p3)

    def test_side_conditions_on_even_partitions(self):
        # the side check reads the position of an edge in its trail, so it
        # answers for partitions with an even trail too instead of raising
        from copnc.families import _side_ok

        g = generate("flower", 3)
        lut = {}
        for e, (a, b) in enumerate(g.endpoints):
            lut[(a, b)] = e
            lut[(b, a)] = e
        e_u12, e_t12 = lut[(0, 1)], lut[(9, 10)]

        def at_even_position(p, e):
            es = next(es for _, es in p.trails if e in es)
            return es.index(e) % 2 == 1

        rng = random.Random(7)
        evens = []
        for _ in range(4000):
            marking = tuple(rng.choice(ds) for ds in g.vertex_darts)
            try:
                p = trails_from_marking(g, marking)
            except CycleError:
                continue
            if not is_odd(p):
                evens.append(p)
        sides = [at_even_position(p, e_u12) and at_even_position(p, e_t12) for p in evens]
        assert True in sides and False in sides
        for p, side in zip(evens, sides):
            assert _side_ok("flower", lut, 3, [p, p, p]) is side
        for parts in zip(evens, evens[1:], evens[2:]):
            want = (
                at_even_position(parts[0], e_u12)
                and at_even_position(parts[1], e_t12)
                and at_even_position(parts[2], e_t12)
            )
            assert _side_ok("flower", lut, 3, parts) is want

    def test_induction_consistency(self):
        # restricting the k+2 triple to the untouched claws matches the k
        # triple under the renaming i >= 2 -> i+2
        for k in (3, 5):
            small = flower_triple(k)
            big = flower_triple(k + 2)
            gs, gb = generate("flower", k), generate("flower", k + 2)
            lutb = {}
            for e, (a, b) in enumerate(gb.endpoints):
                lutb[(a, b)] = e
                lutb[(b, a)] = e

            def rename(vtx):
                grp, i = divmod(vtx, k)
                return grp * (k + 2) + (i if i == 0 else i + 2)

            for ps, pb in zip(small, big):
                for vtx in range(gs.n):
                    grp, i = divmod(vtx, k)
                    if i in (0, 1):  # claws 1 and 2 are rewired by the step
                        continue
                    a, b = gs.endpoints[ps.marked_edge(vtx)]
                    other = b if a == vtx else a
                    og, oi = divmod(other, k)
                    if oi in (0, 1):
                        continue
                    assert pb.marked_edge(rename(vtx)) == lutb[
                        (rename(vtx), rename(other))
                    ]

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            flower_triple(4)


class TestGoldberg:
    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 13, 15])
    def test_validates(self, k):
        triple = goldberg_triple(k)
        g = generate("goldberg", k)
        for p in triple:
            assert p.graph == g
            assert is_odd(p)
            assert sum(p.lengths()) == 3 * len(p.trails)
        assert agreement(triple) == []

    @pytest.mark.parametrize("k", [3, 7, 11])
    def test_empty_triple_intersection(self, k):
        m1, m2, m3 = fan_raspaud_witness(goldberg_triple(k))
        assert m1 & m2 & m3 == frozenset()

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            goldberg_triple(6)


class TestDeterminismAndAudit:
    def test_byte_identical_reconstruction(self):
        from copnc.certificates import certificate, dumps

        g = generate("flower", 7)
        a = dumps(certificate(g, list(flower_triple(7))))
        b = dumps(certificate(g, list(flower_triple(7))))
        assert a == b

    def test_role_audit_clean(self):
        for triple in (petersen_triple(), flower_triple(5), goldberg_triple(3)):
            edge_role_audit(*triple)

    def test_regeneration_reproduces_frozen_bytes(self):
        assert regenerate_check()


class TestReplay:
    """The one replay in block ids against the quadratic replays of
    tests/family_replay.py, which rename or shift every mark at every step,
    for every odd k <= 99."""

    def check_flower(self, base, gadget):
        size, cut, stamp = _FAMILY["flower"]
        stamped = [{**s, **t} for s, t in zip(stamp, block_ids(gadget))]
        for k, tables in flower_replay(base, gadget, 99):
            assert _replay(size, cut, k, block_ids(base), stamped) == block_ids(tables), k

    def check_goldberg(self, base, gadget):
        size, cut, _ = _FAMILY["goldberg"]
        for k, marks in goldberg_replay(base, gadget, 99):
            assert _replay(size, cut, k, base, gadget) == marks, k

    def test_flower_tables_match_quadratic_replay(self):
        base, gadget = flower_roles()
        assert _frozen("flower", 5) == (block_ids(base), block_ids(gadget))
        self.check_flower(base, gadget)

    def test_goldberg_marks_match_quadratic_replay(self):
        base, gadget = goldberg_data()
        assert _frozen("goldberg", 5) == (base, gadget)
        self.check_goldberg(base, gadget)

    def test_carry_without_gadget(self):
        # the derivations carry the base one step with no gadget stamped
        empty = [{}, {}, {}]
        self.check_flower(flower_roles()[0], empty)
        self.check_goldberg(goldberg_data()[0], empty)


class TestFrozenDataChecked:
    """Corrupted frozen data raises FamilyDataError instead of yielding an
    uncertified triple; the checks are raises, so python -O keeps them."""

    def test_flower_mark_off_the_graph(self, corrupt):
        # u3 is not adjacent to w7 for any k
        corrupt(lambda d: d["flower"]["gadget"][0].update(u3="w7"))
        for k in (5, 7, 9):
            with pytest.raises(FamilyDataError):
                flower_triple(k)
        flower_triple(3)  # the gadget is not used at k = 3

    def test_flower_role_out_of_range(self, corrupt):
        corrupt(lambda d: d["flower"]["base"][1].update(u3="x3"))
        with pytest.raises(FamilyDataError):
            flower_triple(3)

    @pytest.mark.parametrize("role, claw", [("t2", "t5"), ("t1", "t0")])
    def test_flower_claw_out_of_range(self, corrupt, role, claw):
        # claw 5 is past the three claws of F_3 and claw 0 before claw 1; in
        # end coordinates t5 would wrap onto t1 and t0 onto a claw of F_k
        corrupt(lambda d: d["flower"]["base"][0].update({role: claw}))
        for k in (3, 5, 13):
            with pytest.raises(FamilyDataError):
                flower_triple(k)

    def test_goldberg_base_id_out_of_range(self, corrupt):
        # G_3 has vertices 0..23; 25 would wrap onto vertex 1 of G_3
        corrupt(lambda d: d["goldberg"]["base"][0].update({"0": 25}))
        for k in (3, 5, 7):
            with pytest.raises(FamilyDataError):
                goldberg_triple(k)

    def test_goldberg_gadget_id_out_of_range(self, corrupt):
        # the gadget lives on G_5, ids 0..31 of its first four blocks; an id
        # 320 = 8 * 40 lower would wrap onto the same vertex of G_5
        corrupt(lambda d: d["goldberg"]["gadget"][0].update({"9": d["goldberg"]["gadget"][0]["9"] - 320}))
        with pytest.raises(FamilyDataError):
            goldberg_triple(5)

    def test_goldberg_mark_off_the_graph(self, corrupt):
        # vertex 8 (block 1, role 1) is not adjacent to vertex 30
        corrupt(lambda d: d["goldberg"]["gadget"][2].update({"8": 30}))
        for k in (5, 7):
            with pytest.raises(FamilyDataError):
                goldberg_triple(k)

    def test_goldberg_vertex_without_mark(self, corrupt):
        corrupt(lambda d: d["goldberg"]["gadget"][0].pop("9"))
        with pytest.raises(FamilyDataError):
            goldberg_triple(5)

    def test_gadget_of_another_partition(self, corrupt):
        # every mark is an edge, but two partitions now agree on the gadget
        def change(d):
            d["goldberg"]["gadget"][1] = dict(d["goldberg"]["gadget"][0])

        corrupt(change)
        with pytest.raises(FamilyDataError, match="not compatible"):
            goldberg_triple(5)

    def test_check_triple_raises(self):
        a, b, c = petersen_triple()
        with pytest.raises(FamilyDataError, match="not compatible"):
            _check_triple((a, a, c))
        g = a.graph
        rng = random.Random(3)
        while True:
            try:
                even = trails_from_marking(g, [rng.choice(ds) for ds in g.vertex_darts])
            except CycleError:
                continue
            if not is_odd(even):
                break
        with pytest.raises(FamilyDataError, match="not odd"):
            _check_triple((even, b, c))

    def test_checks_survive_optimize_flag(self):
        code = "\n".join([
            "import copnc.families as F",
            "gadget = F._data()['goldberg']['gadget']",
            "gadget[1] = dict(gadget[0])",
            "try:",
            "    F.goldberg_triple(5)",
            "except F.FamilyDataError:",
            "    print('raised')",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(copnc.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "raised", out.stderr
