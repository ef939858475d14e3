#!/usr/bin/env python3
"""Search nodes per second of copnc's triple search, on five cases.

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

Each figure is CPU time (process_time), the best of --repeat runs, for
building the table (table rows only), constructing the search and running
it to its first solution or to exhaustion; graphs and colorings are built
beforehand.  Nodes are the search's own count, and rows the mean number
of choice rows a search built, out of its graph's n (the kernel builds a
vertex's row when it first enters the vertex, so a search that stops
early builds fewer, and a graph with a loop, refused at once, none).
On the ladder the ratio column is the time over that of the row before,
so a search linear in n reads about 2 per doubling.

Run from the repository root:  python3 tools/search_rate.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copnc.corpus import corpus_all, corpus_simple12  # noqa: E402
from copnc.graph import CubicGraph, bridges, color_classes, generate, proper_3_edge_coloring  # noqa: E402
from copnc.search import _conformal_rows, _Search  # noqa: E402


def circular_ladder(r: int) -> CubicGraph:
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return CubicGraph(2 * r, edges)


def measure(
    graphs: list[CubicGraph], repeat: int, table: bool = False, cap: int | None = None
) -> tuple[int, int, float]:
    """(nodes, rows built, best CPU seconds) of one search per graph, with
    every trail capped at cap edges: to its first solution, or with table
    set, to exhaustion under the table that keeps partition c off color
    class c."""
    classes = [color_classes(proper_3_edge_coloring(g)) for g in graphs] if table else []
    best, nodes, rows = float("inf"), 0, 0
    for _ in range(repeat):
        nodes = rows = 0
        t0 = time.process_time()
        for i, g in enumerate(graphs):
            if table:
                s = _Search(g, 3, allowed=_conformal_rows(g, classes[i]))
                for _ in s.solutions():
                    pass
            else:
                s = _Search(g, 3, length_cap=cap)
                next(s.solutions(), None)
            nodes += s.nodes
            rows += len(s.rows) - s.rows.count(None)
        best = min(best, time.process_time() - t0)
    return nodes, rows, best


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per case; the best is kept")
    args = ap.parse_args(argv)
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
        nodes, rows, secs = measure(graphs, args.repeat, table=name.startswith("table"), cap=cap)
        ratio = f"{secs / prev:>6.2f}" if prev and name.startswith("ladder") else f"{'-':>6}"
        line = f"{name:<16} {len(graphs):>6} {nodes:>9} {rows / len(graphs):>7.1f} {secs:>8.4f}"
        print(f"{line} {nodes / secs:>10.0f} {ratio}")
        prev = secs if name.startswith("ladder") else None
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
