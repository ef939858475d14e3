#!/usr/bin/env python3
"""Microseconds per marking decode (copnc.partition.trails_from_marking).

  petersen   the markings of all normal odd partitions of the Petersen
             graph (n = 10)
  cube       the markings of all 5,928 normal partitions of the cube
             (n = 8), the largest pool of the switching benchmark
  simple12   the three markings of the first compatible triple on each
             simple graph with n = 12 that has one
  ladder400  the three markings of the conformal triple on the circular
             ladder with n = 400

Each figure is CPU time (process_time) per decode, the best of --repeat
runs; a run decodes every marking of its case, in rounds, until it has
taken RUN_SECONDS.  Markings are found beforehand, so only the decode is
timed.

Run from the repository root:  python3 tools/decode_rate.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copnc.construct import conformal_triple_general  # noqa: E402
from copnc.corpus import corpus_simple12  # noqa: E402
from copnc.graph import CubicGraph, generate  # noqa: E402
from copnc.partition import trails_from_marking  # noqa: E402
from copnc.search import enumerate_nops, enumerate_normal_partitions, find_compatible_triple  # noqa: E402
from search_rate import circular_ladder  # noqa: E402

RUN_SECONDS = 0.2  # least CPU seconds of one run


def cases() -> list[tuple[str, list[tuple[CubicGraph, tuple[int, ...]]]]]:
    petersen = generate("petersen")
    cube = generate("cube")
    triples = []
    for _, g in corpus_simple12():
        triple = find_compatible_triple(g)
        if triple is not None:
            triples += [(g, p.marked) for p in triple]
    ladder = circular_ladder(200)
    return [
        ("petersen", [(petersen, p.marked) for p in enumerate_nops(petersen)]),
        ("cube", [(cube, p.marked) for p in enumerate_normal_partitions(cube)]),
        ("simple12", triples),
        ("ladder400", [(ladder, p.marked) for p in conformal_triple_general(ladder).partitions]),
    ]


def measure(work: list[tuple[CubicGraph, tuple[int, ...]]], repeat: int) -> tuple[int, float]:
    """(decodes, CPU seconds) of the run with the least time per decode;
    a run decodes every marking of work in rounds until it has taken
    RUN_SECONDS of CPU time."""
    runs = []
    for _ in range(repeat):
        count = 0
        t0 = time.process_time()
        while True:
            for g, marking in work:
                trails_from_marking(g, marking)
            count += len(work)
            spent = time.process_time() - t0
            if spent >= RUN_SECONDS:
                break
        runs.append((spent / count, count, spent))
    _, count, spent = min(runs)
    return count, spent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per case; the best is kept")
    args = ap.parse_args(argv)
    print(f"{'case':<10} {'markings':>8} {'n':>5} {'decodes':>8} {'cpu_s':>8} {'us/decode':>10}")
    for name, work in cases():
        decodes, secs = measure(work, args.repeat)
        n = max(g.n for g, _ in work)
        print(f"{name:<10} {len(work):>8} {n:>5} {decodes:>8} {secs:>8.3f} {secs / decodes * 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
