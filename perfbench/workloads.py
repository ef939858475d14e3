"""The three benchmark workloads: their inputs, their ops and the checks
on their outputs.

A workload is built from the run's seed.  Building it is the set-up the
benchmark times: it imports copnc, parses or generates the input graphs
and writes them to files in a work directory.  After that it offers a
fixed list of ops (one pass); every pass repeats the same list, so each
pass does the same work.  An op is one or more CLI calls, run in-process
through copnc.cli.main; the runner times the calls and hands their exit
codes and output to check(), which runs outside the timed region.

check() returns (failed, wrong): failed counts the op's units (graph
checks for sweep, graphs or queries otherwise) that did not complete with
a verified answer; wrong counts the ones that produced an answer that is
incorrect.  Every wrong unit is also failed.  README.md says why each
workload is chosen and sized as it is.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass
class Op:
    label: str
    calls: list[list[str]]   # argv lists for copnc.cli.main, run back to back
    weight: int = 1          # units the op covers (graph checks in a sweep call)
    size: Optional[str] = None  # "small" or "large" input class, or None
    data: object = None      # what check() needs to know about the inputs


@dataclass
class CallResult:
    rc: Optional[int]        # None when main raised
    out: str
    err: str


def interleave(ops: list[Op], rng: random.Random) -> list[Op]:
    """The ops in a seeded order that spreads the small and the large ones
    evenly among each other, so both size classes see the same stretches of
    machine time and their ratio, op_s.growth, cancels slow drifts in the
    speed of a shared machine.  Ops in neither class go last."""
    small = [op for op in ops if op.size == "small"]
    large = [op for op in ops if op.size == "large"]
    rest = [op for op in ops if op.size is None]
    for group in (small, large, rest):
        rng.shuffle(group)
    few, many = sorted((small, large), key=len)
    out = list(many)
    for j, op in enumerate(few):
        out.insert(int((j + 0.5) * len(many) / len(few)) + j, op)
    return out + rest


def _write_edges(path: Path, graphs: list[tuple[int, list[tuple[int, int]]]]) -> None:
    lines = []
    for n, edges in graphs:
        lines.append(f"{n} {len(edges)}")
        lines.extend(f"{u} {v}" for u, v in edges)
    path.write_text("\n".join(lines) + "\n")


def _payload(n: int, edges: list[tuple[int, int]]) -> dict:
    return {"n": n, "edges": [[u, v] for u, v in edges]}


def _validates(validate, doc, graph) -> bool:
    """True when copnc's validator accepts the certificate for this graph
    and it holds three partitions; a malformed document is a rejection."""
    try:
        return validate(doc, graph)["ok"] is True and len(doc["partitions"]) == 3
    except (ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# sweep: conjecture checks over the shipped corpora
# ---------------------------------------------------------------------------


def is_bridgeless(n: int, edges: list[tuple[int, int]]) -> bool:
    """Brute-force oracle: no edge whose deletion disconnects the graph.

    Deletes each edge in turn and walks the rest breadth first; loops and
    parallel copies are handled by edge id, so they are never bridges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((e, v))
        adj[v].append((e, u))
    for cut in range(len(edges)):
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for e, w in adj[u]:
                if e != cut and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if not all(seen):
            return False
    return True


class Sweep:
    """`copnc sweep --jobs 1` with conj25, thm12 and thm5 over the 388
    multigraphs with n = 10 and the 85 simple graphs with n = 12, each
    corpus written in a seed-shuffled order."""

    name = "sweep"
    CHECKS = ("conj25", "thm12", "thm5")

    def __init__(self, seed: int, workdir: Path):
        from copnc import certificates, corpus, graph

        self._validate = certificates.validate_certificate
        self._graph = graph.CubicGraph
        rng = random.Random(seed)
        multi = [(g.n, list(g.endpoints)) for _, g in corpus.corpus_all(10)]
        simple = [(g.n, list(g.endpoints)) for _, g in corpus.corpus_simple12()]
        g6_text = (Path(corpus.__file__).parent / "data" / "corpus_simple_n12.g6").read_text()
        g6_lines = [line for line in g6_text.splitlines() if line.strip()]
        if len(g6_lines) != len(simple):
            raise RuntimeError("graph6 corpus and its parse disagree in length")
        rng.shuffle(multi)
        order = list(range(len(simple)))
        rng.shuffle(order)
        simple = [simple[i] for i in order]
        n10, n12 = workdir / "n10.edges", workdir / "n12.g6"
        _write_edges(n10, multi)
        n12.write_text("".join(g6_lines[i] + "\n" for i in order))
        self._bridgeless: dict[tuple[str, int], bool] = {}
        ops = []
        for check in self.CHECKS:
            for path, graphs, size in ((n10, multi, "small"), (n12, simple, "large")):
                out = workdir / f"{check}_{path.stem}.jsonl"
                argv = ["sweep", "--input", str(path), "--check", check, "--jobs", "1", "--out", str(out)]
                ops.append(Op(f"{check}:{path.stem}", [argv], len(graphs), size, (path.stem, graphs, out)))
        self.ops = interleave(ops, rng)

    def bridgeless(self, stem: str, i: int, graph: tuple[int, list]) -> bool:
        key = (stem, i)
        if key not in self._bridgeless:
            self._bridgeless[key] = is_bridgeless(*graph)
        return self._bridgeless[key]

    def check(self, op: Op, results: list[CallResult]) -> tuple[int, int]:
        stem, graphs, out = op.data
        check = op.label.split(":")[0]
        if results[0].rc is None or not out.exists():
            return op.weight, 0
        try:
            records = {rec.get("id"): rec for rec in map(json.loads, out.read_text().splitlines())}
        except ValueError:
            return op.weight, op.weight
        finally:
            out.unlink()
        failed = wrong = 0
        for i, graph in enumerate(graphs):
            rec = records.get(f"{stem}:{i}")
            if rec is None or rec.get("n") != graph[0]:
                failed += 1
                continue
            ok = rec.get("agree") is True
            if check == "conj25":
                found = rec.get("triple_found")
                ok = ok and found == self.bridgeless(stem, i, graph)
                cert = rec.get("certificate")
                if found:
                    ok = ok and cert is not None
                if cert is not None:
                    ok = ok and _validates(self._validate, cert, self._graph(*graph))
            if not ok:
                wrong += 1
        failed += wrong
        if results[0].rc != 0 and failed == 0:
            failed = op.weight
        return failed, wrong


# ---------------------------------------------------------------------------
# construct: the conformal closed loop on 3-edge-colorable graphs
# ---------------------------------------------------------------------------


def _dihedral(k: int, rng: random.Random):
    s = rng.randrange(k)
    if rng.random() < 0.5:
        return lambda i: (s - i) % k
    return lambda i: (s + i) % k


def circular_ladder(r: int, rng: random.Random) -> tuple[int, list]:
    """Rails 0..r-1 and r..2r-1 with rungs i -- r+i, relabelled by a
    random rotation, reflection and rail swap."""
    rot = _dihedral(r, rng)
    swap = rng.random() < 0.5
    lab = lambda v: ((v // r) ^ swap) * r + rot(v % r)
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(r + i, r + (i + 1) % r) for i in range(r)]
    edges += [(i, r + i) for i in range(r)]
    return 2 * r, [(lab(u), lab(v)) for u, v in edges]


def moebius_ladder(r: int, rng: random.Random) -> tuple[int, list]:
    """The 2r-cycle with chords i -- i+r, rotated and reflected."""
    lab = _dihedral(2 * r, rng)
    edges = [(i, (i + 1) % (2 * r)) for i in range(2 * r)]
    edges += [(i, i + r) for i in range(r)]
    return 2 * r, [(lab(u), lab(v)) for u, v in edges]


def generalized_petersen3(k: int, rng: random.Random) -> tuple[int, list]:
    """GP(k, 3), bipartite for even k, rotated and reflected."""
    rot = _dihedral(k, rng)
    lab = lambda v: (v // k) * k + rot(v % k)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [(k + i, k + (i + 3) % k) for i in range(k)]
    return 2 * k, [(lab(u), lab(v)) for u, v in edges]


def truncated_ladder(r: int, rng: random.Random) -> tuple[int, list]:
    """Circular ladder with every vertex replaced by a triangle."""
    n, base = circular_ladder(r, rng)
    used = [0] * n
    edges = []
    for u, v in base:
        edges.append((3 * u + used[u], 3 * v + used[v]))
        used[u] += 1
        used[v] += 1
    for v in range(n):
        edges += [(3 * v, 3 * v + 1), (3 * v + 1, 3 * v + 2), (3 * v + 2, 3 * v)]
    return 3 * n, edges


def digon_ladder(r: int, rng: random.Random) -> tuple[int, list]:
    """Circular ladder with every rung subdivided by a digon."""
    n, base = circular_ladder(r, rng)
    edges = base[: 2 * r]
    for u, v in base[2 * r :]:
        a, b = n, n + 1
        n += 2
        edges += [(u, a), (a, b), (a, b), (b, v)]
    return n, edges


SHAPES = {
    "circular": lambda n, rng: circular_ladder(n // 2, rng),
    "moebius": lambda n, rng: moebius_ladder(n // 2, rng),
    "gp3": lambda n, rng: generalized_petersen3(n // 2, rng),
    "truncated": lambda n, rng: truncated_ladder(round(n / 6), rng),
    "digon": lambda n, rng: digon_ladder(n // 4, rng),
}


def oriented(n: int, edges: list, rng: random.Random) -> tuple[int, list]:
    """Each edge listed from a random end, which swaps its two darts."""
    return n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


class Construct:
    """`construct --method conformal --out` then `validate --graph` on five
    shapes at n ~ 200 and n ~ 400, plus `family goldberg:49` and
    `family flower:99` (n = 392, 396) each followed by `validate`; one
    n = 800 circular ladder probe per run, in a subprocess, untimed."""

    name = "construct"
    # the medians the report prints, under the names the roadmap uses
    REPORT_NAMES = {"op_s.large.p50": "certify_s.n400", "op_s.growth.p50": "growth_2x"}
    SIZES = (("small", 200), ("large", 400))
    FAMILIES = ("goldberg:49", "flower:99")
    PROBE_R = 400
    PROBE_CAP_S = 20.0

    def __init__(self, seed: int, workdir: Path):
        import copnc.cli  # noqa: F401  (the import is part of set-up)

        self.seed = seed
        self.workdir = workdir
        rng = random.Random(seed)
        ops = []
        for size, n_target in self.SIZES:
            for shape, build in SHAPES.items():
                n, edges = oriented(*build(n_target, rng), rng)
                path = workdir / f"{shape}_{n}.edges"
                _write_edges(path, [(n, edges)])
                cert = workdir / f"{shape}_{n}.json"
                calls = [
                    ["construct", "--method", "conformal", "--graph", f"@{path}",
                     "--seed", str(seed), "--out", str(cert)],
                    ["validate", str(cert), "--graph", f"@{path}"],
                ]
                ops.append(Op(f"{shape}:{n}", calls, 1, size, (_payload(n, edges), cert)))
        for spec in self.FAMILIES:
            cert = workdir / f"{spec.replace(':', '_')}.json"
            calls = [["family", spec, "--out", str(cert)], ["validate", str(cert), "--graph", spec]]
            ops.append(Op(spec, calls, 1, None, (None, cert)))
        self.ops = interleave(ops, rng)
        n, edges = oriented(*circular_ladder(self.PROBE_R, rng), rng)
        self.probe_graph = (n, edges)
        self.probe_path = workdir / f"probe_{n}.edges"
        _write_edges(self.probe_path, [(n, edges)])

    def check(self, op: Op, results: list[CallResult]) -> tuple[int, int]:
        graph, cert = op.data
        made, checked = results
        if made.rc == 3:
            return 1, 1  # these graphs are 3-edge-colorable by construction
        if made.rc != 0 or checked.rc is None or not cert.exists():
            return 1, 0
        try:
            doc = json.loads(cert.read_text())
            report = json.loads(checked.out)
        except ValueError:
            return 1, 1
        finally:
            cert.unlink()
        ok = checked.rc == 0 and report.get("ok") is True
        ok = ok and len(doc.get("partitions", [])) == 3
        if graph is not None:
            ok = ok and doc.get("graph") == graph
        return (0, 0) if ok else (1, 1)

    def probe(self, root: Path) -> tuple[int, int, str]:
        """Run the n = 800 conformal construction in a child interpreter
        under a time cap.  Returns (failed, wrong, note), each count 0 or 1."""
        from copnc import certificates, graph

        n, edges = self.probe_graph
        cert = self.workdir / "probe.json"
        argv = [sys.executable, "-m", "copnc", "construct", "--method", "conformal",
                "--graph", f"@{self.probe_path}", "--seed", str(self.seed), "--out", str(cert)]
        try:
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=self.PROBE_CAP_S)
        except subprocess.TimeoutExpired:
            return 1, 0, f"probe n={n}: failed, over the {self.PROBE_CAP_S:.0f} s cap"
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return 1, 0, f"probe n={n}: failed, exit {proc.returncode}: {last[:160]}"
        try:
            doc = json.loads(cert.read_text())
        except (OSError, ValueError):
            doc = {}
        if not _validates(certificates.validate_certificate, doc, graph.CubicGraph(n, edges)):
            return 1, 1, f"probe n={n}: failed, certificate does not validate"
        return 0, 0, f"probe n={n}: ok"


# ---------------------------------------------------------------------------
# switching: reachability classes on small graphs
# ---------------------------------------------------------------------------

# Class count and sizes of every query, as the package computes them at the
# commit that introduced this benchmark.
PINNED = {
    ("k33", "plain", None): (1, [642]),
    ("k33", "odd", None): (1, [300]),
    ("prism", "plain", None): (1, [628]),
    ("prism", "odd", None): (1, [226]),
    ("cube", "plain", None): (1, [5928]),
    ("cube", "odd", None): (1, [1824]),
    ("cube", "conformal", "0,5,8,11"): (1, [192]),
    ("cube", "conformal", "0,5,9,10"): (1, [208]),
    ("cube", "conformal", "0,6,7,8"): (1, [208]),
    ("cube", "conformal", "1,3,8,11"): (1, [208]),
    ("cube", "conformal", "1,3,9,10"): (1, [192]),
    ("cube", "conformal", "1,4,7,9"): (1, [208]),
    ("cube", "conformal", "2,3,6,10"): (1, [208]),
    ("cube", "conformal", "2,4,5,11"): (1, [208]),
    ("cube", "conformal", "2,4,6,7"): (1, [192]),
}


class Switching:
    """`copnc switch-class` with plain and odd moves on k33, prism and cube
    and conformal moves over the cube's 9 perfect matchings, in seed order."""

    name = "switching"

    def __init__(self, seed: int, workdir: Path):
        import copnc.cli  # noqa: F401  (the import is part of set-up)

        ops = []
        for key in PINNED:
            g, moves, matching = key
            argv = ["switch-class", "--graph", g, "--moves", moves]
            if matching:
                argv += ["--matching", matching]
            size = "large" if g == "cube" else "small"
            ops.append(Op(f"{g}:{moves}:{matching or '-'}", [argv], 1, size, key))
        self.ops = interleave(ops, random.Random(seed))

    def check(self, op: Op, results: list[CallResult]) -> tuple[int, int]:
        res = results[0]
        if res.rc != 0:
            return 1, 0
        try:
            doc = json.loads(res.out)
        except ValueError:
            return 1, 1
        count, sizes = PINNED[op.data]
        ok = doc.get("count") == count and doc.get("sizes") == sizes
        return (0, 0) if ok else (1, 1)


WORKLOADS = {w.name: w for w in (Sweep, Construct, Switching)}
