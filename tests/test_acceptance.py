"""Acceptance suite: one test per stated criterion.

Each test runs its criterion at the stated tolerance and prints one
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch
them stream).  Every triple produced anywhere here passes through
validated_triple, which enforces normality, oddness, the length-balance
identity, pairwise compatibility, the edge-role audit and the
empty-triple-intersection property, so the audit criteria quantify over
everything the suite builds.
"""

import time

from copnc.certificates import certificate, validate_certificate
from copnc.construct import (
    NotThreeEdgeColorable,
    bipartite_triple,
    conformal_triple_general,
)
from copnc.corpus import corpus_all
from copnc.families import (
    derive_petersen,
    flower_boundary_ok,
    flower_triple,
    goldberg_triple,
    petersen_triple,
    regenerate_check,
)
from copnc.graph import bridges, generate, has_perfect_matching, is_bipartite, perfect_matchings
from copnc.partition import (
    agreement,
    associated_matching,
    is_odd,
    length_profile,
    validate_normal,
)
from copnc.search import (
    enumerate_compatible_triples,
    enumerate_nops,
    find_compatible_triple,
    find_length3_triple,
    find_nop,
)
from copnc.switching import partition_classes

from conftest import corpus_upto, simple_graphs_upto
from lemma_checks import edge_role_audit

REGISTRY = {"triples": 0, "partitions": 0}


def _report(num: int, ok: bool, elapsed: float, budget, detail: str) -> None:
    limit = f"/{budget:.0f}s" if budget else ""
    print(
        f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.1f}s{limit}] {detail}"
    )
    assert ok, f"criterion {num:02d}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num:02d} exceeded {budget}s"


def validated_triple(g, triple) -> None:
    """Full audit of one compatible triple; feeds the audit criteria."""
    for p in triple:
        assert p.graph == g
        validate_normal(g, p.trails)
        assert is_odd(p)
        assert sum(p.lengths()) == 3 * len(p.trails)
        REGISTRY["partitions"] += 1
    assert agreement(triple) == []
    edge_role_audit(*triple)
    m1, m2, m3 = (associated_matching(p) for p in triple)
    assert m1 & m2 & m3 == frozenset()
    REGISTRY["triples"] += 1


def test_criterion_01_odd_partition_iff_matching():
    """Every graph in the full multigraph corpus: a normal odd partition
    exists exactly when a perfect matching does."""
    t0 = time.perf_counter()
    checked = disagreements = 0
    for gid, g in corpus_upto(10, include_simple12=False):
        p = find_nop(g)
        pm = has_perfect_matching(g)
        if (p is not None) != pm:
            disagreements += 1
        if p is not None:
            assert is_odd(p) and sum(p.lengths()) == 3 * len(p.trails)
        checked += 1
    ok = disagreements == 0 and checked == 483
    _report(1, ok, time.perf_counter() - t0, 300,
            f"{checked} graphs, {disagreements} disagreements")


def test_criterion_02_length3_triple_iff_bipartite():
    """Simple connected cubic graphs up to 10 vertices: an all-length-3
    compatible triple exists exactly for the bipartite ones, and the
    bipartite construction succeeds on each of those."""
    t0 = time.perf_counter()
    checked = disagreements = bip_count = 0
    for gid, g in simple_graphs_upto(10):
        bip, _ = is_bipartite(g)
        triple = find_length3_triple(g)
        if bip != (triple is not None):
            disagreements += 1
        if bip:
            bip_count += 1
            bt = bipartite_triple(g)
            bt.validate()
            assert all(length_profile(p) == (3,) * (g.n // 2) for p in bt.partitions)
        checked += 1
    ok = disagreements == 0 and checked == 27 and bip_count >= 2
    _report(2, ok, time.perf_counter() - t0, None,
            f"{checked} graphs, {bip_count} bipartite, {disagreements} disagreements")


def test_criterion_03_k4_needs_length_five():
    """The complete graph admits compatible triples and every one of them
    has a trail of length at least 5 in some partition."""
    t0 = time.perf_counter()
    g = generate("k4")
    sols = list(enumerate_compatible_triples(g))
    for t in sols:
        validated_triple(g, t)
    ok = len(sols) > 0 and all(
        max(max(p.lengths()) for p in t) >= 5 for t in sols
    )
    _report(3, ok, time.perf_counter() - t0, 1,
            f"{len(sols)} triples, all with a trail of length >= 5")


def test_criterion_04_petersen_profile_triple():
    """A compatible triple of the Petersen graph exists with per-partition
    trail profile (5,3,3,3,1); the shipped one validates and the
    derivation finds it from scratch."""
    t0 = time.perf_counter()
    frozen = petersen_triple()
    g = generate("petersen")
    validated_triple(g, frozen)
    profiles_ok = all(length_profile(p) == (5, 3, 3, 3, 1) for p in frozen)
    derived = derive_petersen()
    validated_triple(g, derived)
    ok = profiles_ok and all(length_profile(p) == (5, 3, 3, 3, 1) for p in derived)
    _report(4, ok, time.perf_counter() - t0, 30, "profile (5,3,3,3,1) confirmed")


def test_criterion_05_theta_two_conformal_classes():
    """On the two-vertex graph with three parallel edges, the partitions
    conformal to a fixed edge split into exactly two switching classes."""
    t0 = time.perf_counter()
    g = generate("theta")
    m = frozenset({0})
    pool = enumerate_nops(g, conformal_to=m)
    classes = partition_classes(pool, "conformal", m)
    ok = len(pool) == 2 and sorted(map(len, classes)) == [1, 1]
    _report(5, ok, time.perf_counter() - t0, 1,
            f"{len(pool)} conformal partitions in {len(classes)} classes")


def test_criterion_06_conformal_connectivity():
    """Simple cubic graphs on 4, 6, 8 vertices: for every perfect matching
    the conformal partitions form a single switching class."""
    t0 = time.perf_counter()
    graphs = [g for n in (4, 6, 8) for _, g in corpus_all(n)
              if all(u != v for u, v in g.endpoints)
              and len({tuple(sorted(e)) for e in g.endpoints}) == g.m]
    checked = bad = 0
    for g in graphs:
        nops = enumerate_nops(g)
        by_matching = {}
        for p in nops:
            by_matching.setdefault(associated_matching(p), []).append(p)
        for m in perfect_matchings(g):
            pool = by_matching.get(m, [])
            assert pool, "every matching admits a conformal partition"
            classes = partition_classes(pool, "conformal", m)
            if len(classes) != 1:
                bad += 1
            checked += 1
    ok = bad == 0 and len(graphs) == 8 and checked > 8
    _report(6, ok, time.perf_counter() - t0, 600,
            f"{checked} (graph, matching) pairs, {bad} disconnected classes")


def test_criterion_07_odd_switch_connectivity():
    """Every cubic multigraph on 2, 4, 6 vertices: all normal odd
    partitions lie in one odd-switching class."""
    t0 = time.perf_counter()
    checked = bad = 0
    for n in (2, 4, 6):
        for gid, g in corpus_all(n):
            pool = enumerate_nops(g)
            classes = partition_classes(pool, "odd")
            if pool and len(classes) != 1:
                bad += 1
            checked += 1
    ok = bad == 0 and checked == 24
    _report(7, ok, time.perf_counter() - t0, 600,
            f"{checked} graphs, {bad} split classes")


def test_criterion_08_conformal_triples_via_reductions():
    """Every 3-edge-colorable graph in the corpus (including members with
    digons and triangles) yields a conformal compatible triple."""
    from stepwise_route import find_digon, find_triangle

    t0 = time.perf_counter()
    done = digons = triangles = 0
    for gid, g in corpus_upto(12):
        try:
            t = conformal_triple_general(g)
        except NotThreeEdgeColorable:
            continue
        t.validate()
        validated_triple(g, t.partitions)
        done += 1
        if find_digon(g):
            digons += 1
        if find_triangle(g):
            triangles += 1
    ok = done == 169 and digons > 20 and triangles > 20
    _report(8, ok, time.perf_counter() - t0, 1800,
            f"{done} colorable graphs ({digons} with digons, {triangles} with triangles)")


def test_criterion_09_empty_triple_intersection():
    """The three matchings of every produced triple intersect in nothing;
    quantified over the families, both construction routes and the raw
    search across the small corpus."""
    t0 = time.perf_counter()
    produced = 0
    for triple in (petersen_triple(), flower_triple(3), flower_triple(5),
                   goldberg_triple(3), goldberg_triple(5)):
        g = triple[0].graph
        validated_triple(g, triple)
        produced += 1
    for name in ("k33", "cube"):
        g = generate(name)
        validated_triple(g, bipartite_triple(g).partitions)
        produced += 1
    for gid, g in corpus_upto(8):
        t = find_compatible_triple(g)
        if t is not None:
            validated_triple(g, t)
            produced += 1
    ok = produced >= 20 and REGISTRY["triples"] >= produced
    _report(9, ok, time.perf_counter() - t0, None,
            f"{REGISTRY['triples']} triples audited so far, 0 violations")


def test_criterion_10_structural_audits():
    """Length-balance identity for every partition produced, edge-role
    audit for every compatible triple (both enforced in validated_triple),
    and: every bridged corpus graph exhausts to no triple."""
    t0 = time.perf_counter()
    for gid, g in corpus_upto(6):
        for p in enumerate_nops(g):
            assert sum(p.lengths()) == 3 * len(p.trails)
            REGISTRY["partitions"] += 1
    bridged = none_count = 0
    for gid, g in corpus_upto(10, include_simple12=False):
        if bridges(g):
            bridged += 1
            if find_compatible_triple(g) is None:
                none_count += 1
    ok = bridged > 100 and none_count == bridged and REGISTRY["partitions"] > 500
    _report(10, ok, time.perf_counter() - t0, None,
            f"{bridged} bridged graphs all exhausted to None; "
            f"{REGISTRY['partitions']} partitions balance-checked")


def test_criterion_11_families():
    """Flower and Goldberg triples validate for all odd k up to 15, the
    k=3 flower triple matches the boundary table verbatim, and the frozen
    bases regenerate byte for byte."""
    t0 = time.perf_counter()
    for k in (3, 5, 7, 9, 11, 13, 15):
        for fam, builder in (("flower", flower_triple), ("goldberg", goldberg_triple)):
            triple = builder(k)
            validated_triple(generate(fam, k), triple)
    boundary = all(flower_boundary_ok(k, flower_triple(k)) for k in (3, 5, 7, 9, 11, 13, 15))
    regen = regenerate_check()
    ok = boundary and regen
    _report(11, ok, time.perf_counter() - t0, 300,
            f"k <= 15 validated; boundary table {'holds' if boundary else 'BROKEN'}; "
            f"regeneration {'byte-identical' if regen else 'DRIFTED'}")


def test_criterion_12_bridgeless_sweep():
    """Every bridgeless graph in the corpus admits a compatible triple; a
    validated failure would be reported as a counterexample, not hidden."""
    t0 = time.perf_counter()
    counterexamples = []
    swept = 0
    for gid, g in corpus_upto(12):
        if bridges(g):
            continue
        if g.has_loop():
            continue  # loops force a bridge in connected cubic graphs anyway
        swept += 1
        triple = find_compatible_triple(g)
        if triple is None:
            counterexamples.append(gid)
            continue
        validated_triple(g, triple)
        doc = certificate(g, list(triple))
        assert validate_certificate(doc)["ok"]
    for gid in counterexamples:
        print(f"criterion 12: COUNTEREXAMPLE CANDIDATE {gid} (bridgeless, no triple)")
    ok = swept > 150 and not counterexamples
    _report(12, ok, time.perf_counter() - t0, 7200,
            f"{swept} bridgeless graphs swept, {len(counterexamples)} counterexamples")
