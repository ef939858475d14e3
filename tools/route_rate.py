#!/usr/bin/env python3
"""CPU seconds of copnc.construct.conformal_triple_general on two ladders.

  circular   the circular ladder (prism over a cycle), n = 800 ... 6,400;
             no digon or triangle, so the descent runs on the whole graph
  truncated  the circular ladder with every vertex replaced by a
             triangle, n ~ 800 ... 6,400; the route contracts the
             triangles, runs the descent on a core of n/3 vertices and
             lifts the triple back

Each figure is CPU time (process_time) of one call, the best of --repeat
calls; graphs are built beforehand.  The ratio column is the time over
that of the row before, so a route linear in n reads about 2 per
doubling.  On the circular ladders, switch_us is the CPU microseconds per
copnc.switching.conformal_switch call over every (color, vertex) pair of
the descent's seed marks, the best of --repeat rounds.

The last five columns split one call into CPU milliseconds per phase,
taken from the call with the least total of --repeat more calls, in
which the route's functions are wrapped with timers:

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

Run from the repository root:  python3 tools/route_rate.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copnc import construct  # noqa: E402
from copnc.construct import _conformal_seed, conformal_triple_general  # noqa: E402
from copnc.graph import CubicGraph, color_classes, proper_3_edge_coloring  # noqa: E402
from copnc.switching import conformal_switch  # noqa: E402
from search_rate import circular_ladder  # noqa: E402

SIZES = (800, 1600, 3200, 6400)
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
    "_base_conformal_triple": "descent",
}


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


def measure(g: CubicGraph, repeat: int) -> float:
    """Best CPU seconds of one conformal_triple_general call on g."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        conformal_triple_general(g)
        best = min(best, time.process_time() - t0)
    return best


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
    call on g with the least total of repeat timed calls."""
    best, phases = float("inf"), {}
    for _ in range(repeat):
        spent = dict.fromkeys(TIMED.values(), 0.0)
        with phase_timers(spent):
            t0 = time.process_time()
            conformal_triple_general(g)
            total = time.process_time() - t0
        if total < best:
            best = total
            # the seed runs inside the descent, every other phase outside
            # the rest, so the lift is what the timed ones leave
            spent["descent"] -= spent["seed"]
            spent["lift"] = total - sum(spent.values())
            phases = {k: spent[k] * 1e3 for k in PHASES}
    return phases


def switch_us(g: CubicGraph, repeat: int) -> float:
    """Best CPU microseconds per conformal_switch call, over every (color,
    vertex) pair of the seed marks of the descent on g."""
    classes = color_classes(proper_3_edge_coloring(g))
    marks = _conformal_seed(g, classes)
    pairs = [(marks[c], classes[c], v) for c in range(3) for v in range(g.n)]
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        for marked, m, v in pairs:
            conformal_switch(g, marked, m, v)
        best = min(best, time.process_time() - t0)
    return best / len(pairs) * 1e6


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="calls per graph; the best is kept")
    args = ap.parse_args(argv)
    cases = [
        ("circular", [circular_ladder(n // 2) for n in SIZES]),
        ("truncated", [truncated_ladder(round(n / 6)) for n in SIZES]),
    ]
    print(f"{'case':<10} {'n':>6} {'cpu_s':>8} {'ratio':>6} {'switch_us':>9}", *(f"{p + '_ms':>11}" for p in PHASES))
    for name, graphs in cases:
        prev = None
        for g in graphs:
            secs = measure(g, args.repeat)
            ratio = f"{secs / prev:>6.2f}" if prev else f"{'-':>6}"
            us = f"{switch_us(g, args.repeat):>9.2f}" if name == "circular" else f"{'-':>9}"
            phases = phase_ms(g, args.repeat)
            print(f"{name:<10} {g.n:>6} {secs:>8.3f} {ratio} {us}", *(f"{phases[p]:>11.2f}" for p in PHASES))
            prev = secs
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
