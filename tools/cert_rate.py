#!/usr/bin/env python3
"""Milliseconds per certificate write, json.loads and validate_certificate.

  circular, moebius, gp3, truncated, digon
             the conformal certificates (`construct --method conformal`)
             of the five shapes of the construct benchmark at n ~ 400,
             labelled and oriented from --seed as the benchmark does
  goldberg:49, flower:99
             the family certificates (`family goldberg:49`, `family
             flower:99`), n = 392 and 396

Each figure is CPU time (process_time) of one call, the best of --repeat
calls: `write` is what the CLI runs to write the certificate of a triple
it holds, the document's fields built from the triple and
copnc.certificates.dumps of the document, `loads` is json.loads on its
text, `validate` is validate_certificate on the loaded document and
`validate_g` the same against the certificate's graph built on its own,
as `copnc validate --graph` runs it.  Triples and graphs are built
beforehand, so only these four steps are timed.  `write` counts the
document's building as well as dumps, so rows taken where the document
holds trail objects, which certificate() builds, compare like for like
with rows taken where it holds the partitions themselves.

Run from the repository root:  python3 tools/cert_rate.py [--repeat 15] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from copnc import certificates as C  # noqa: E402
from copnc import families  # noqa: E402
from copnc.cli import _certificate_text, _triple_claims  # noqa: E402
from copnc.construct import conformal_triple_general  # noqa: E402
from copnc.graph import CubicGraph, generate  # noqa: E402
from perfbench.workloads import SHAPES, oriented  # noqa: E402

N = 400
FAMILIES = {"goldberg": 49, "flower": 99}


def writers(seed: int) -> list[tuple[str, CubicGraph, Callable[[], str]]]:
    """(label, graph, write) for each case: write() makes the certificate's
    text from the triple, as the CLI does."""
    rng = random.Random(seed)
    out = []
    for shape, build in SHAPES.items():
        g = CubicGraph(*oriented(*build(N, rng), rng))
        t = conformal_triple_general(g, seed=seed)
        out.append((shape, g, lambda g=g, t=t: _certificate_text(g, t.partitions, _triple_claims(t, "conformal"))))
    for name, k in FAMILIES.items():
        g = generate(name, k)
        triple = getattr(families, f"{name}_triple")(k)
        out.append((f"{name}:{k}", g, lambda g=g, t=triple, spec=f"{name}:{k}": _certificate_text(g, t, {"family": spec})))
    return out


def best_ms(call: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.process_time()
        call()
        best = min(best, time.process_time() - t0)
    return best * 1e3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=15, help="calls per step; the best is kept")
    ap.add_argument("--seed", type=int, default=1, help="labelling and orientation of the shapes")
    args = ap.parse_args(argv)
    print(f"{'case':<12} {'n':>5} {'bytes':>8} {'write_ms':>9} {'loads_ms':>9} {'validate_ms':>12} {'validate_g_ms':>14}")
    for label, g, write in writers(args.seed):
        text = write()
        loaded = json.loads(text)
        expect = CubicGraph(g.n, g.endpoints)
        assert C.validate_certificate(loaded)["ok"] and C.validate_certificate(loaded, expect)["ok"], label
        write_ms = best_ms(write, args.repeat)
        loads = best_ms(lambda: json.loads(text), args.repeat)
        check = best_ms(lambda: C.validate_certificate(loaded), args.repeat)
        check_g = best_ms(lambda: C.validate_certificate(loaded, expect), args.repeat)
        print(f"{label:<12} {g.n:>5} {len(text):>8} {write_ms:>9.2f} {loads:>9.2f} {check:>12.2f} {check_g:>14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
