#!/usr/bin/env python3
"""Milliseconds per copnc.switching.partition_classes call, and per whole
query, on the 15 queries of the switching benchmark: plain and odd moves
on k33, prism and cube, and conformal moves over each of the cube's 9
perfect matchings.

Each figure is CPU time (process_time) per call, the best of --repeat
runs; a run calls in rounds until it has taken RUN_SECONDS.  The
ms/call column times partition_classes alone on a pool enumerated
beforehand (odd pools are decoded by the first call and stay so).  The
enum_ms column times the enumeration alone (enumerate_normal_partitions
or enumerate_nops), and us/part is that time per partition it yields.
The query_ms column times the query as `copnc switch-class` runs it: the
enumeration and then partition_classes on that fresh pool.

Run from the repository root:  python3 tools/class_rate.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copnc.graph import generate, perfect_matchings  # noqa: E402
from copnc.search import enumerate_normal_partitions, enumerate_nops  # noqa: E402
from copnc.switching import partition_classes  # noqa: E402

RUN_SECONDS = 0.2  # least CPU seconds of one run


def queries() -> list[tuple[str, Callable[[], list], str, frozenset[int] | None]]:
    """(name, pool enumeration, move kind, matching) of each query."""
    out = []
    for name in ("k33", "prism", "cube"):
        g = generate(name)
        out.append((f"{name}:plain", partial(enumerate_normal_partitions, g), "plain", None))
        out.append((f"{name}:odd", partial(enumerate_nops, g), "odd", None))
    cube = generate("cube")
    for m in perfect_matchings(cube):
        ids = ",".join(map(str, sorted(m)))
        out.append((f"cube:conformal:{ids}", partial(enumerate_nops, cube, conformal_to=m), "conformal", m))
    return out


def measure(call: Callable[[], list], repeat: int) -> tuple[int, int, float]:
    """(len of the result, calls, CPU seconds) of the run with the least
    time per call; a run calls call() in rounds until it has taken
    RUN_SECONDS of CPU time."""
    runs = []
    for _ in range(repeat):
        calls = 0
        t0 = time.process_time()
        while True:
            result = call()
            calls += 1
            spent = time.process_time() - t0
            if spent >= RUN_SECONDS:
                break
        runs.append((spent / calls, len(result), calls, spent))
    _, size, calls, spent = min(runs)
    return size, calls, spent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per query; the best is kept")
    args = ap.parse_args(argv)
    print(
        f"{'query':<27} {'pool':>5} {'classes':>7} {'calls':>6} {'cpu_s':>7} {'ms/call':>8}"
        f" {'enum_ms':>8} {'us/part':>7} {'query_ms':>9}"
    )
    total = enum = whole = 0.0
    for name, enumerate_pool, kind, m in queries():
        pool = enumerate_pool()
        count, calls, secs = measure(partial(partition_classes, pool, kind, m), args.repeat)
        _, e_calls, e_secs = measure(enumerate_pool, args.repeat)
        _, q_calls, q_secs = measure(lambda: partition_classes(enumerate_pool(), kind, m), args.repeat)
        total += secs / calls
        enum += e_secs / e_calls
        whole += q_secs / q_calls
        print(
            f"{name:<27} {len(pool):>5} {count:>7} {calls:>6} {secs:>7.3f} {secs / calls * 1e3:>8.2f}"
            f" {e_secs / e_calls * 1e3:>8.2f} {e_secs / e_calls / len(pool) * 1e6:>7.2f} {q_secs / q_calls * 1e3:>9.2f}"
        )
    print(f"{'all 15':<27} {'':>5} {'':>7} {'':>6} {'':>7} {total * 1e3:>8.2f} {enum * 1e3:>8.2f} {'':>7} {whole * 1e3:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
