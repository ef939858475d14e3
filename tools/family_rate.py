#!/usr/bin/env python3
"""Milliseconds per flower_triple and goldberg_triple at doubling k.

  flower     copnc.families.flower_triple(k), k = 25, 49, 99, 199
             (n = 4k = 100 ... 796)
  goldberg   copnc.families.goldberg_triple(k), k = 13, 25, 49, 99
             (n = 8k = 104 ... 792)

Each figure is CPU time (process_time) of one call, the best of --repeat
calls, after the frozen data is loaded once.  `ms` is the whole call:
the k -> k+2 replay of the frozen tables, building the graph, decoding
the three markings and checking the triple.  `replay_ms` is the replay of
the block-id tables alone (copnc.families._replay).  The ratio column is
`ms` over that of the row before, so a construction linear in k reads
about 2 per doubling.

Run from the repository root:  python3 tools/family_rate.py [--repeat 7]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copnc import families  # noqa: E402

SIZES = {"flower": (25, 49, 99, 199), "goldberg": (13, 25, 49, 99)}


def best_ms(fn, repeat: int) -> float:
    """Best CPU milliseconds of one fn() call."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best * 1e3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="calls per k; the best is kept")
    args = ap.parse_args(argv)
    triples = {"flower": families.flower_triple, "goldberg": families.goldberg_triple}
    print(f"{'family':<9} {'k':>4} {'n':>5} {'ms':>8} {'ratio':>6} {'replay_ms':>9}")
    for name, triple in triples.items():
        size, cut, stamp = families._FAMILY[name]
        base, gadget = families._frozen(name, 5)
        gadget = [{**s, **t} for s, t in zip(stamp, gadget)]
        prev = None
        for k in SIZES[name]:
            ms = best_ms(lambda: triple(k), args.repeat)
            replay_ms = best_ms(lambda: families._replay(size, cut, k, base, gadget), args.repeat)
            ratio = f"{ms / prev:>6.2f}" if prev else f"{'-':>6}"
            print(f"{name:<9} {k:>4} {size * k:>5} {ms:>8.2f} {ratio} {replay_ms:>9.2f}")
            prev = ms
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
