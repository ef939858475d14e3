import importlib.util
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from copnc.corpus import MULTI_SIZES, corpus_all, corpus_simple12
from copnc.graph import CubicGraph, generate


@pytest.fixture(scope="session")
def theta():
    return generate("theta")


@pytest.fixture(scope="session")
def k4():
    return generate("k4")


@pytest.fixture(scope="session")
def k33():
    return generate("k33")


@pytest.fixture(scope="session")
def prism():
    return generate("prism")


@pytest.fixture(scope="session")
def cube():
    return generate("cube")


@pytest.fixture(scope="session")
def petersen():
    return generate("petersen")


@pytest.fixture(scope="session")
def dumbbell():
    return CubicGraph(2, [(0, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def loop_claw():
    # center joined to three loop-vertices: three bridges, no perfect matching
    return CubicGraph(4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)])


@pytest.fixture(scope="session")
def one_bridge():
    """Two K4 blocks, each with one subdivided edge, joined between the
    subdivision vertices: exactly one bridge (the joining edge, id 0)."""
    edges = [(4, 9)]
    # block A on 0..4 (4 subdivides the 0-1 edge of a K4 on 0..3)
    edges += [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # block B on 5..9 (9 subdivides the 5-6 edge)
    edges += [(5, 9), (6, 9), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    return CubicGraph(10, edges)


def brute_perfect_matchings(g: CubicGraph) -> set[frozenset[int]]:
    """Independent matching oracle: scan all edge subsets of the right size."""
    from itertools import combinations

    out = set()
    for comb in combinations(range(g.m), g.n // 2):
        covered = set()
        ok = True
        for e in comb:
            u, v = g.endpoints[e]
            if u == v or u in covered or v in covered:
                ok = False
                break
            covered.update((u, v))
        if ok and len(covered) == g.n:
            out.add(frozenset(comb))
    return out


def corpus_upto(n_max, include_simple12=True):
    """Stream the corpus in size order up to n_max vertices."""
    for n in MULTI_SIZES:
        if n > n_max:
            return
        yield from corpus_all(n)
    if include_simple12 and n_max >= 12:
        yield from corpus_simple12()


def simple_graphs_upto(n_max):
    """Only the simple members of corpus_upto(n_max), in size order."""
    for gid, g in corpus_upto(n_max):
        pairs = [(min(u, v), max(u, v)) for u, v in g.endpoints]
        if len(set(pairs)) == g.m and all(u != v for u, v in pairs):
            yield gid, g


def passage(p, v):
    """v's two unmarked darts in partition p, ascending: its internal
    passage.  Their edges are the darts shifted right by one."""
    d = p.marked[v]
    a, b, c = p.graph.vertex_darts[v]
    if d == a:
        return b, c
    return (a, c) if d == b else (a, b)


def graph_automorphisms(g: CubicGraph):
    """All vertex automorphisms of a simple cubic graph (networkx VF2)."""
    import networkx as nx

    nxg = nx.Graph(list(g.endpoints))
    matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
    return [dict(m) for m in matcher.isomorphisms_iter()]


def relabelled(g: CubicGraph, rng: random.Random) -> CubicGraph:
    """g with its vertices renumbered, its edges reordered and each edge
    listed from a random end."""
    vmap = list(range(g.n))
    rng.shuffle(vmap)
    edges = [(vmap[u], vmap[v]) if rng.random() < 0.5 else (vmap[v], vmap[u]) for u, v in g.endpoints]
    rng.shuffle(edges)
    return CubicGraph(g.n, edges)


# Shapes of the construct benchmark, as (n, edge list) in generator labelling.


def circular_ladder(r):
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return 2 * r, edges


def moebius_ladder(r):
    edges = [(i, (i + 1) % (2 * r)) for i in range(2 * r)]
    edges += [(i, i + r) for i in range(r)]
    return 2 * r, edges


def generalized_petersen3(k):
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [(k + i, k + (i + 3) % k) for i in range(k)]
    return 2 * k, edges


def truncated_ladder(r):
    """Circular ladder with every vertex replaced by a triangle."""
    n, base = circular_ladder(r)
    used = [0] * n
    edges = []
    for u, v in base:
        edges.append((3 * u + used[u], 3 * v + used[v]))
        used[u] += 1
        used[v] += 1
    for v in range(n):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v + 2, 3 * v)]
    return 3 * n, edges


def digon_ladder(r):
    """Circular ladder with every rung subdivided by a digon."""
    n, base = circular_ladder(r)
    edges = base[: 2 * r]
    for u, v in base[2 * r :]:
        a, b = n, n + 1
        n += 2
        edges += [(u, a), (a, b), (a, b), (b, v)]
    return n, edges


def pairing_model(rng, n):
    """A random cubic multigraph on n vertices by the pairing model: three
    points per vertex, matched uniformly at random, each pair an edge.  A
    pair at one vertex is a loop and pairs on the same two vertices are
    parallel edges; both are kept."""
    points = [v for v in range(n) for _ in range(3)]
    rng.shuffle(points)
    return CubicGraph(n, list(zip(points[::2], points[1::2])))


@lru_cache(maxsize=None)
def _perfbench_workloads():
    """perfbench/workloads.py of this checkout, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def construct_workload_graphs(seed):
    """The construct benchmark's ten shape graphs for a seed, as (n, edges)
    in the order its set-up draws them: the five shapes at n ~ 200, then
    at n ~ 400, each relabelled by an automorphism and oriented at random."""
    wl = _perfbench_workloads()
    rng = random.Random(seed)
    return [
        wl.oriented(*build(n_target, rng), rng)
        for _, n_target in wl.Construct.SIZES
        for build in wl.SHAPES.values()
    ]
