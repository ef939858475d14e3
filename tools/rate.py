#!/usr/bin/env python3
"""CPU time of copnc's layers, one table per group of fixed cases.

  decode   microseconds per marking decode (copnc.partition.trails_from_marking)
  search   search nodes per second of copnc's triple search
  route    CPU seconds of copnc.construct.conformal_triple_general, by phase
  cert     milliseconds per certificate write, json.loads and
           validate_certificate
  class    milliseconds per copnc.switching.partition_classes call, and per
           whole switch-class query
  family   milliseconds per flower_triple and goldberg_triple at doubling k
  startup  milliseconds of `import copnc.cli` in a fresh interpreter, and the
           line count of src/copnc

Each group's function below names its cases and columns.  Every figure is
CPU time (process_time), with graphs and inputs built beforehand, taken by
one of two rules: search, route, cert, family and startup keep the best of
--repeat single calls (best); decode and class keep, of --repeat runs, the
run with the least time per call, a run calling in rounds until it has
taken RUN_SECONDS (rounds).  --repeat defaults per group (REPEAT); --seed
sets the labelling and orientation of the cert shapes.  With no GROUP all
seven run, in the order above.  Ratio columns are a time over that of the
row before, so a cost linear in n reads about 2 per doubling.

Run from the repository root:  python3 tools/rate.py [GROUP ...] [--repeat N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from copnc import certificates as C  # noqa: E402
from copnc import construct, families  # noqa: E402
from copnc.cli import _certificate_text, _triple_claims  # noqa: E402
from copnc.construct import _conformal_seed, conformal_triple_general  # noqa: E402
from copnc.corpus import corpus_all, corpus_simple12  # noqa: E402
from copnc.graph import CubicGraph, bridges, color_classes, generate, perfect_matchings, proper_3_edge_coloring  # noqa: E402
from copnc.partition import trails_from_marking  # noqa: E402
from copnc.search import _conformal_rows, _Search, enumerate_nops, enumerate_normal_partitions, find_compatible_triple  # noqa: E402
from copnc.switching import conformal_switch, partition_classes  # noqa: E402
from perfbench.workloads import SHAPES, oriented  # noqa: E402

RUN_SECONDS = 0.2  # least CPU seconds of one run under rounds()
REPEAT = {"decode": 5, "search": 3, "route": 3, "cert": 15, "class": 5, "family": 7, "startup": 5}


def best(call: Callable[[], object], repeat: int) -> tuple[float, object]:
    """(least CPU seconds of one call() in repeat calls, what the last call
    returned)."""
    secs = float("inf")
    for _ in range(repeat):
        result = None  # no result is held across a timed call
        t0 = time.process_time()
        result = call()
        secs = min(secs, time.process_time() - t0)
    return secs, result


def rounds(call: Callable[[], object], repeat: int, per: int = 1) -> tuple[object, int, float]:
    """(what the last call returned, and the units and CPU seconds of the
    run with the least time per unit); each of repeat runs calls call() in
    rounds, per units a call, until it has taken RUN_SECONDS of CPU time."""
    runs = []
    for _ in range(repeat):
        count = 0
        t0 = time.process_time()
        while True:
            result = call()
            count += per
            spent = time.process_time() - t0
            if spent >= RUN_SECONDS:
                break
        runs.append((spent / count, count, spent))
    _, count, spent = min(runs)
    return result, count, spent


def ratio(secs: float, prev: float | None) -> str:
    return f"{secs / prev:>6.2f}" if prev else f"{'-':>6}"


def circular_ladder(r: int) -> CubicGraph:
    """The prism over an r-cycle, n = 2r."""
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return CubicGraph(2 * r, edges)


def truncated_ladder(r: int) -> CubicGraph:
    """The circular ladder on 2r vertices with every vertex a triangle."""
    base = circular_ladder(r)
    used = [0] * base.n
    edges = []
    for u, v in base.endpoints:
        edges.append((3 * u + used[u], 3 * v + used[v]))
        used[u] += 1
        used[v] += 1
    for v in range(base.n):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v + 2, 3 * v)]
    return CubicGraph(3 * base.n, edges)


def decode_all(work: list[tuple[CubicGraph, tuple[int, ...]]]) -> None:
    for g, marking in work:
        trails_from_marking(g, marking)


def decode(repeat: int, seed: int) -> None:
    """Microseconds per decode (rounds, each decoding every marking of its
    case; markings are found beforehand):

      petersen   the markings of all normal odd partitions of the Petersen
                 graph (n = 10)
      cube       the markings of all 5,928 normal partitions of the cube
                 (n = 8), the largest pool of the switching benchmark
      simple12   the three markings of the first compatible triple on each
                 simple graph with n = 12 that has one
      ladder400  the three markings of the conformal triple on the circular
                 ladder with n = 400
    """
    petersen, cube = generate("petersen"), generate("cube")
    triples = []
    for _, g in corpus_simple12():
        triple = find_compatible_triple(g)
        if triple is not None:
            triples += [(g, p.marked) for p in triple]
    ladder = circular_ladder(200)
    cases = [
        ("petersen", [(petersen, p.marked) for p in enumerate_nops(petersen)]),
        ("cube", [(cube, p.marked) for p in enumerate_normal_partitions(cube)]),
        ("simple12", triples),
        ("ladder400", [(ladder, p.marked) for p in conformal_triple_general(ladder).partitions]),
    ]
    print(f"{'case':<10} {'markings':>8} {'n':>5} {'decodes':>8} {'cpu_s':>8} {'us/decode':>10}")
    for name, work in cases:
        _, decodes, secs = rounds(partial(decode_all, work), repeat, per=len(work))
        n = max(g.n for g, _ in work)
        print(f"{name:<10} {len(work):>8} {n:>5} {decodes:>8} {secs:>8.3f} {secs / decodes * 1e6:>10.1f}")


def searches(graphs: list[CubicGraph], classes: list, cap: int | None) -> tuple[int, int]:
    """(nodes, rows built) of one search per graph, with every trail capped
    at cap edges: to its first solution, or with classes given, to
    exhaustion under the table that keeps partition c off color class c."""
    nodes = rows = 0
    for i, g in enumerate(graphs):
        if classes:
            s = _Search(g, 3, allowed=_conformal_rows(g, classes[i]))
            for _ in s.solutions():
                pass
        else:
            s = _Search(g, 3, length_cap=cap)
            next(s.solutions(), None)
        nodes += s.nodes
        rows += len(s.rows) - s.rows.count(None)
    return nodes, rows


def search(repeat: int, seed: int) -> None:
    """Nodes per second (best of constructing each search and running it;
    table rows also build the table):

      bridged10  the 25 loopless bridged graphs of the n = 10 corpus; each
                 search exhausts with no triple (283,807 nodes in all)
      simple12   the first triple on each of the 85 simple graphs with n = 12
      ladder     the first triple on the circular ladder, n = 1,200 ... 9,600;
                 it needs about n nodes, so its rate shows how the cost of a
                 node grows with n
      table      every triple of the cube and of the prism whose partition c
                 marks no edge of color class c: the search under the table of
                 each vertex's two color 3-cycles, run to exhaustion
      length3    find_length3_triple's search (every trail capped at 3 edges,
                 so each has exactly 3) on the 388 graphs of the n = 10 corpus
                 and the 85 simple graphs with n = 12; all but the bipartite
                 ones exhaust it

    Nodes are the search's own count, and rows the mean number of choice
    rows a search built, out of its graph's n (the kernel builds a vertex's
    row when it first enters the vertex, so a search that stops early
    builds fewer, and a graph with a loop, refused at once, none).
    """
    cases = [
        ("bridged10", [g for _, g in corpus_all(10) if not g.has_loop() and bridges(g)]),
        ("simple12", [g for _, g in corpus_simple12()]),
    ]
    cases += [(f"ladder n={2 * r}", [circular_ladder(r)]) for r in (600, 1200, 2400, 4800)]
    cases += [(f"table {name}", [generate(name)]) for name in ("cube", "prism")]
    cases += [("length3 n=10", [g for _, g in corpus_all(10)]), ("length3 n=12", cases[1][1])]
    print(f"{'case':<16} {'graphs':>6} {'nodes':>9} {'rows':>7} {'cpu_s':>8} {'nodes/s':>10} {'ratio':>6}")
    prev = None
    for name, graphs in cases:
        cap = 3 if name.startswith("length3") else None
        table = name.startswith("table")
        classes = [color_classes(proper_3_edge_coloring(g)) for g in graphs] if table else []
        secs, (nodes, rows) = best(partial(searches, graphs, classes, cap), repeat)
        ladder = name.startswith("ladder")
        line = f"{name:<16} {len(graphs):>6} {nodes:>9} {rows / len(graphs):>7.1f} {secs:>8.4f}"
        print(f"{line} {nodes / secs:>10.0f} {ratio(secs, prev if ladder else None)}")
        prev = secs if ladder else None


ROUTE_SIZES = (800, 1600, 3200, 6400)
PHASES = ("color", "contract", "seed", "descent", "lift")
# the route's functions, looked up by name in copnc.construct, and the
# phase each one's time goes to
TIMED = {
    "proper_3_edge_coloring": "color",
    "Contraction": "contract",
    "digon_contract": "contract",
    "triangle_contract": "contract",
    "_conformal_seed": "seed",
    "_descent": "descent",
    "_base_marks": "descent",
}


@contextmanager
def phase_timers(spent: dict[str, float]):
    """Add the CPU seconds of each TIMED function, and of
    Contraction.core, to spent[its phase] while the block runs."""

    def timer(fn, phase):
        def timed(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.process_time() - t0

        return timed

    saved = {name: getattr(construct, name) for name in TIMED}
    core = construct.Contraction.core
    for name, phase in TIMED.items():
        setattr(construct, name, timer(saved[name], phase))
    saved["Contraction"].core = timer(core, "contract")
    try:
        yield
    finally:
        saved["Contraction"].core = core
        for name, fn in saved.items():
            setattr(construct, name, fn)


def phase_ms(g: CubicGraph, repeat: int) -> dict[str, float]:
    """CPU milliseconds per phase (PHASES) of the conformal_triple_general
    call on g with the least total of repeat calls under phase_timers."""
    calls = []
    for _ in range(repeat):
        spent = dict.fromkeys(TIMED.values(), 0.0)
        with phase_timers(spent):
            t0 = time.process_time()
            conformal_triple_general(g)
            total = time.process_time() - t0
        calls.append((total, spent))
    total, spent = min(calls, key=lambda call: call[0])
    # the seed runs inside the descent, every other phase outside the
    # rest, so the lift is what the timed ones leave
    spent["descent"] -= spent["seed"]
    spent["lift"] = total - sum(spent.values())
    return {k: spent[k] * 1e3 for k in PHASES}


def switch_all(g: CubicGraph, pairs: list) -> None:
    for marked, m, v in pairs:
        conformal_switch(g, marked, m, v)


def switch_us(g: CubicGraph, repeat: int) -> float:
    """Best CPU microseconds per conformal_switch call, over every (color,
    vertex) pair of the seed marks of the descent on g."""
    classes = color_classes(proper_3_edge_coloring(g))
    marks = _conformal_seed(g, classes)
    pairs = [(marks[c], classes[c], v) for c in range(3) for v in range(g.n)]
    secs, _ = best(partial(switch_all, g, pairs), repeat)
    return secs / len(pairs) * 1e6


def route(repeat: int, seed: int) -> None:
    """CPU seconds of one conformal_triple_general call (best) on:

      circular   the circular ladder (prism over a cycle), n = 800 ... 6,400;
                 no digon or triangle, so the descent runs on the whole graph
      truncated  the circular ladder with every vertex replaced by a
                 triangle, n ~ 800 ... 6,400; the route contracts the
                 triangles, runs the descent on a core of n/3 vertices and
                 lifts the triple back

    On the circular ladders, switch_us is the CPU microseconds per
    copnc.switching.conformal_switch call over every (color, vertex) pair of
    the descent's seed marks (best of rounds over all pairs).  The last five
    columns split one call into CPU milliseconds per phase, taken from the
    call with the least total of --repeat more calls, in which the route's
    functions are wrapped with timers:

      color_ms     proper_3_edge_coloring
      contract_ms  the Contraction set-up, its digon and triangle surgeries
                   and the compaction of the core
      seed_ms      the descent's seed marks (construct._conformal_seed)
      descent_ms   the descent on the core (or the base-graph solve), less
                   its seed
      lift_ms      the rest of the call: the lifts back through the
                   surgeries and the one decode and validation of the
                   triple (on the circular ladders, which have no site to
                   contract, the split into components and the validation)
    """
    cases = [
        ("circular", [circular_ladder(n // 2) for n in ROUTE_SIZES]),
        ("truncated", [truncated_ladder(round(n / 6)) for n in ROUTE_SIZES]),
    ]
    print(f"{'case':<10} {'n':>6} {'cpu_s':>8} {'ratio':>6} {'switch_us':>9}", *(f"{p + '_ms':>11}" for p in PHASES))
    for name, graphs in cases:
        prev = None
        for g in graphs:
            secs, _ = best(partial(conformal_triple_general, g), repeat)
            us = f"{switch_us(g, repeat):>9.2f}" if name == "circular" else f"{'-':>9}"
            phases = phase_ms(g, repeat)
            print(f"{name:<10} {g.n:>6} {secs:>8.3f} {ratio(secs, prev)} {us}", *(f"{phases[p]:>11.2f}" for p in PHASES))
            prev = secs


CERT_N = 400
CERT_FAMILIES = {"goldberg": 49, "flower": 99}


def writers(seed: int) -> list[tuple[str, CubicGraph, Callable[[], str]]]:
    """(label, graph, write) for each case: write() makes the certificate's
    text from the triple, as the CLI does."""
    rng = random.Random(seed)
    out = []
    for shape, build in SHAPES.items():
        g = CubicGraph(*oriented(*build(CERT_N, rng), rng))
        t = conformal_triple_general(g, seed=seed)
        out.append((shape, g, lambda g=g, t=t: _certificate_text(g, t.partitions, _triple_claims(t, "conformal"))))
    for name, k in CERT_FAMILIES.items():
        g = generate(name, k)
        triple = getattr(families, f"{name}_triple")(k)
        out.append((f"{name}:{k}", g, lambda g=g, t=triple, spec=f"{name}:{k}": _certificate_text(g, t, {"family": spec})))
    return out


def cert(repeat: int, seed: int) -> None:
    """Milliseconds per step (best), on:

      circular, moebius, gp3, truncated, digon
                 the conformal certificates (`construct --method conformal`)
                 of the five shapes of the construct benchmark at n ~ 400,
                 labelled and oriented from --seed as the benchmark does
      goldberg:49, flower:99
                 the family certificates (`family goldberg:49`, `family
                 flower:99`), n = 392 and 396

    `write` is what the CLI runs to write the certificate of a triple it
    holds, the document's fields built from the triple and
    copnc.certificates.dumps of the document, `loads` is json.loads on its
    text, `validate` is validate_certificate on the loaded document and
    `validate_g` the same against the certificate's graph built on its own,
    as `copnc validate --graph` runs it.  `write` counts the document's
    building as well as dumps, so rows taken where the document holds trail
    objects, which certificate() builds, compare like for like with rows
    taken where it holds the partitions themselves.
    """
    print(f"{'case':<12} {'n':>5} {'bytes':>8} {'write_ms':>9} {'loads_ms':>9} {'validate_ms':>12} {'validate_g_ms':>14}")
    for label, g, write in writers(seed):
        text = write()
        loaded = json.loads(text)
        expect = CubicGraph(g.n, g.endpoints)
        assert C.validate_certificate(loaded)["ok"] and C.validate_certificate(loaded, expect)["ok"], label
        validate = partial(C.validate_certificate, loaded)
        steps = (write, partial(json.loads, text), validate, partial(validate, expect))
        write_ms, loads_ms, check_ms, check_g_ms = (best(step, repeat)[0] * 1e3 for step in steps)
        print(f"{label:<12} {g.n:>5} {len(text):>8} {write_ms:>9.2f} {loads_ms:>9.2f} {check_ms:>12.2f} {check_g_ms:>14.2f}")


def plain_odd(names) -> list[tuple[str, Callable[[], list], str, frozenset[int] | None]]:
    """(name, pool enumeration, move kind, matching) of plain and odd moves
    on each named graph."""
    out = []
    for name in names:
        g = generate(name)
        out.append((f"{name}:plain", partial(enumerate_normal_partitions, g), "plain", None))
        out.append((f"{name}:odd", partial(enumerate_nops, g), "odd", None))
    return out


def queries() -> list[tuple[str, Callable[[], list], str, frozenset[int] | None]]:
    """The queries of the switching benchmark, as plain_odd gives them."""
    out = plain_odd(("k33", "prism", "cube"))
    cube = generate("cube")
    for m in perfect_matchings(cube):
        ids = ",".join(map(str, sorted(m)))
        out.append((f"cube:conformal:{ids}", partial(enumerate_nops, cube, conformal_to=m), "conformal", m))
    return out


def class_(repeat: int, seed: int) -> None:
    """Milliseconds per call (rounds) on the 15 queries of the switching
    benchmark: plain and odd moves on k33, prism and cube, and conformal
    moves over each of the cube's 9 perfect matchings; then their total,
    and plain and odd moves on the Petersen graph (n = 10, the largest
    graph the default switch-class --cap of 100000 markings admits), which
    the total leaves out.

    The ms/call column times partition_classes alone on a pool enumerated
    beforehand (odd pools are decoded by the first call and stay so).  The
    enum_ms column times the enumeration alone (enumerate_normal_partitions
    or enumerate_nops), and us/part is that time per partition it yields.
    The query_ms column times the query as `copnc switch-class` runs it: the
    enumeration and then partition_classes on that fresh pool.
    """
    print(
        f"{'query':<27} {'pool':>5} {'classes':>7} {'calls':>6} {'cpu_s':>7} {'ms/call':>8}"
        f" {'enum_ms':>8} {'us/part':>7} {'query_ms':>9}"
    )

    def row(name, enumerate_pool, kind, m) -> tuple[float, float, float]:
        pool = enumerate_pool()
        found, calls, secs = rounds(partial(partition_classes, pool, kind, m), repeat)
        _, e_calls, e_secs = rounds(enumerate_pool, repeat)
        _, q_calls, q_secs = rounds(lambda: partition_classes(enumerate_pool(), kind, m), repeat)
        print(
            f"{name:<27} {len(pool):>5} {len(found):>7} {calls:>6} {secs:>7.3f} {secs / calls * 1e3:>8.2f}"
            f" {e_secs / e_calls * 1e3:>8.2f} {e_secs / e_calls / len(pool) * 1e6:>7.2f} {q_secs / q_calls * 1e3:>9.2f}"
        )
        return secs / calls, e_secs / e_calls, q_secs / q_calls

    total, enum, whole = map(sum, zip(*(row(*q) for q in queries())))
    print(f"{'all 15':<27} {'':>5} {'':>7} {'':>6} {'':>7} {total * 1e3:>8.2f} {enum * 1e3:>8.2f} {'':>7} {whole * 1e3:>9.2f}")
    for q in plain_odd(("petersen",)):
        row(*q)


FAMILY_SIZES = {"flower": (25, 49, 99, 199), "goldberg": (13, 25, 49, 99)}


def family(repeat: int, seed: int) -> None:
    """Milliseconds per call (best), after the frozen data is loaded once:

      flower     copnc.families.flower_triple(k), k = 25, 49, 99, 199
                 (n = 4k = 100 ... 796)
      goldberg   copnc.families.goldberg_triple(k), k = 13, 25, 49, 99
                 (n = 8k = 104 ... 792)

    `ms` is the whole call: the k -> k+2 replay of the frozen tables,
    building the graph, decoding the three markings and checking the
    triple.  `replay_ms` is the replay of the block-id tables alone
    (copnc.families._replay).  The ratio column is over `ms`.
    """
    triples = {"flower": families.flower_triple, "goldberg": families.goldberg_triple}
    print(f"{'family':<9} {'k':>4} {'n':>5} {'ms':>8} {'ratio':>6} {'replay_ms':>9}")
    for name, triple in triples.items():
        size, cut, stamp = families._FAMILY[name]
        base, gadget = families._frozen(name, 5)
        gadget = [{**s, **t} for s, t in zip(stamp, gadget)]
        prev = None
        for k in FAMILY_SIZES[name]:
            ms = best(partial(triple, k), repeat)[0] * 1e3
            replay_ms = best(partial(families._replay, size, cut, k, base, gadget), repeat)[0] * 1e3
            print(f"{name:<9} {k:>4} {size * k:>5} {ms:>8.2f} {ratio(ms, prev)} {replay_ms:>9.2f}")
            prev = ms


# run by a fresh interpreter: prints the CPU seconds of the import alone
IMPORT_CLI = "import time; t0 = time.process_time(); import copnc.cli; print(time.process_time() - t0)"


def import_secs(env: dict[str, str]) -> float:
    """CPU seconds of `import copnc.cli` in one fresh interpreter run with
    env."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def startup(repeat: int, seed: int) -> None:
    """Milliseconds of `import copnc.cli` (best of --repeat interpreters,
    started one after another, each with PYTHONPATH=src), and lines:

      import_nowrite  PYTHONDONTWRITEBYTECODE=1: with no __pycache__ under
                      src/copnc, every copnc module is compiled from source
      import_warm     PYTHONPYCACHEPREFIX set to a temporary directory that
                      one import beforehand filled, so every module loads
                      its cached bytecode
      import          the environment as given (run last: where it writes
                      bytecode, it writes src/copnc/__pycache__)
      src_lines       the lines of src/copnc/*.py (`cat | wc -l`)

    The time is the child's own process_time around the import, so the
    interpreter's start-up is not in it.
    """
    base = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    print(f"{'case':<15} {'runs':>4} {'value':>8} unit")
    with tempfile.TemporaryDirectory() as cache:
        warm = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
        warm["PYTHONPYCACHEPREFIX"] = cache
        import_secs(warm)
        envs = {"import_nowrite": {**base, "PYTHONDONTWRITEBYTECODE": "1"}, "import_warm": warm, "import": base}
        for name, env in envs.items():
            ms = min(import_secs(env) for _ in range(repeat)) * 1e3
            print(f"{name:<15} {repeat:>4} {ms:>8.2f} ms")
    lines = sum(p.read_text().count("\n") for p in (ROOT / "src" / "copnc").glob("*.py"))
    print(f"{'src_lines':<15} {'-':>4} {lines:>8} lines")


# each prints its group's table from (repeat, seed); only cert reads the seed
GROUPS = {
    "decode": decode,
    "search": search,
    "route": route,
    "cert": cert,
    "class": class_,
    "family": family,
    "startup": startup,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("group", nargs="*", metavar="GROUP", help=f"any of {', '.join(GROUPS)}; all when none is given")
    ap.add_argument("--repeat", type=int, help=f"runs or calls per case, the best kept (default per group: {REPEAT})")
    ap.add_argument("--seed", type=int, default=1, help="labelling and orientation of the cert shapes")
    args = ap.parse_args(argv)
    if args.repeat is not None and args.repeat < 1:
        ap.error(f"--repeat must be at least 1, not {args.repeat}")
    unknown = [name for name in args.group if name not in GROUPS]
    if unknown:
        ap.error(f"unknown group {unknown[0]!r}; choose from {', '.join(GROUPS)}")
    for i, name in enumerate(args.group or GROUPS):
        if i:
            print()
        GROUPS[name](args.repeat or REPEAT[name], args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
