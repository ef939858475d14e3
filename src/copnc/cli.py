"""Command line surface.

Subcommands:
  validate      check a JSON certificate (graph + partitions)
  construct     build a partition or conformal triple and emit a certificate
  family        emit the certified triples for petersen / flower:k / goldberg:k
  switch-class  explore switching reachability classes
  sweep         run a conjecture check over a graph corpus, JSONL out

Graph arguments accept a family name ("petersen"), a parametrized name
("flower:7"), or a file reference ("@graphs.g6", "@graphs.edges").

Exit codes: 0 success/verified, 2 validation failure, 3 precondition
failure, 4 cap or budget exhausted, 5 I/O, format or usage trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Optional

from . import certificates as C
from . import families
from .construct import (
    ConformalTriple,
    NoMatching,
    NotBipartite,
    NotThreeEdgeColorable,
    SearchExhausted,
    bipartite_triple,
    conformal_triple_general,
    nop_from_matching,
)
from .graph import (
    BadParameter,
    CubicGraph,
    Malformed,
    NonCubic,
    color_classes,
    generate,
    is_perfect_matching,
    parse_edge_list,
    parse_graph6,
    parse_spec,
)
from .partition import associated_matching, length_profile
from .search import check_graph, enumerate_normal_partitions, enumerate_nops
from .switching import CapExceeded, partition_classes

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_EXHAUSTED = 4
EXIT_IO = 5


class UsageError(ValueError):
    pass


def resolve_graphs(spec: str) -> list[tuple[str, CubicGraph]]:
    """A graph spec names a generator or a file of graphs."""
    if spec.startswith("@"):
        path = Path(spec[1:])
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        stem = path.stem
        if path.suffix == ".g6":
            return [(f"{stem}:{i}", parse_graph6(line)) for i, line in enumerate(text.splitlines()) if line.strip()]
        if path.suffix == ".edges":
            return [(f"{stem}:{i}", g) for i, g in enumerate(parse_edge_list(text))]
        raise UsageError(f"unknown graph file type: {path.suffix}")
    return [(spec, generate(*parse_spec(spec)))]


def resolve_graph(spec: str) -> CubicGraph:
    graphs = resolve_graphs(spec)
    if len(graphs) != 1:
        raise UsageError(f"'{spec}' holds {len(graphs)} graphs, need exactly one")
    return graphs[0][1]


def _open_out(path: str):
    """path opened for writing; a path that cannot be written is exit 5."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _certificate_text(g: CubicGraph, partitions, extra: dict) -> str:
    """The certificate of partitions on g with the fields extra, written
    by dumps straight from g's endpoints and the partitions' trails."""
    return C.dumps({"schema": C.SCHEMA, "graph": g, **extra, "partitions": partitions})


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with _open_out(out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        doc = json.loads(Path(args.certificate).read_text())
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, an int too long, nested too deep
        print(f"certificate is not JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    expect = resolve_graph(args.graph) if args.graph else None
    try:
        report = C.validate_certificate(doc, expect)
    except (C.CertificateError, Malformed, NonCubic) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return EXIT_IO
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["ok"] else EXIT_INVALID


def cmd_construct(args) -> int:
    g = resolve_graph(args.graph)
    try:
        if args.method == "matching":
            text = _certificate_text(g, [nop_from_matching(g)], {"method": "matching"})
        elif args.method == "bipartite":
            triple = bipartite_triple(g)
            text = _certificate_text(g, triple.partitions, _triple_claims(triple, "bipartite"))
        elif args.method == "conformal":
            triple = conformal_triple_general(g, seed=args.seed)
            text = _certificate_text(g, triple.partitions, _triple_claims(triple, "conformal"))
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown method {args.method}")
    except (NotBipartite, NotThreeEdgeColorable, NoMatching) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchExhausted as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    _emit(text, args.out)
    return EXIT_OK


def _triple_claims(triple: ConformalTriple, method: str) -> dict:
    """The fields a triple's certificate carries besides its partitions."""
    return {
        "method": method,
        "coloring": list(triple.coloring),
        # triple.validate() has shown partition c conformal to class c
        "matchings": [sorted(c) for c in color_classes(triple.coloring)],
    }


def cmd_family(args) -> int:
    if args.regenerate:
        ok = families.regenerate_check()
        print("frozen family data reproduced" if ok else "family data drift detected")
        return EXIT_OK if ok else EXIT_INVALID
    if not args.name:
        raise UsageError("family name required (petersen | flower:k | goldberg:k)")
    try:
        # checked as validate checks a claimed family, so the output validates
        name, k = parse_spec(args.name)
        if name == "petersen" and k is None:
            triple = families.petersen_triple()
        elif name in ("flower", "goldberg") and k is not None:
            triple = (families.flower_triple if name == "flower" else families.goldberg_triple)(k)
        else:
            generate(name, k)  # a spec that names no graph raises its own error here
            raise UsageError(f"unknown family '{name}'")
    except (BadParameter, ValueError) as exc:
        print(f"bad family: {exc}", file=sys.stderr)
        return EXIT_IO
    claims = {"family": args.name}
    if args.emit_partitions:
        claims["matchings"] = [sorted(associated_matching(p)) for p in triple]
        claims["profiles"] = [list(length_profile(p)) for p in triple]
    _emit(_certificate_text(triple[0].graph, triple, claims), args.out)
    return EXIT_OK


def cmd_switch_class(args) -> int:
    if args.cap < 0:
        raise UsageError(f"--cap must be at least 0, not {args.cap}")
    g = resolve_graph(args.graph)
    try:
        ids = [int(x) for x in args.matching.split(",")] if args.matching else None
    except ValueError:
        raise UsageError(f"bad --matching '{args.matching}': expected comma separated edge ids") from None
    matching = frozenset(ids) if ids else None
    try:
        if matching is not None and args.moves != "conformal":
            raise UsageError(f"--matching applies to conformal moves only, not {args.moves}")
        if args.moves == "plain":
            pool = enumerate_normal_partitions(g, cap=args.cap)
        elif args.moves == "odd":
            pool = enumerate_nops(g, cap=args.cap)
        else:
            if matching is None:
                raise UsageError("--matching is required for conformal moves")
            # an id given twice covers its ends twice
            if len(matching) < len(ids) or not is_perfect_matching(g, matching):
                print(f"precondition failed: edges {sorted(ids)} are not a perfect matching", file=sys.stderr)
                return EXIT_PRECONDITION
            pool = enumerate_nops(g, cap=args.cap, conformal_to=matching)
        classes = partition_classes(pool, args.moves, matching, cap=args.cap)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    doc = {
        "schema": C.SCHEMA,
        "graph": C.graph_payload(g),
        "moves": args.moves,
        "matching": sorted(matching) if matching else None,
        "count": len(classes),
        "sizes": sorted((len(c) for c in classes), reverse=True),
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


# one encoder for every sweep record: the bytes of json.dumps(rep,
# sort_keys=True), without the circular check (a record is a tree)
_RECORD = json.JSONEncoder(sort_keys=True, check_circular=False)


def _sweep_worker(item):
    (gid, g), which = item
    return check_graph(g, which, gid)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, not {args.jobs}")
    graphs = resolve_graphs(args.input if args.input.startswith("@") else "@" + args.input)
    items = [(graph, args.check) for graph in graphs]
    failures = 0
    with ExitStack() as stack:
        out = stack.enter_context(_open_out(args.out)) if args.out else sys.stdout
        # a pool starts all its workers at once: no more than there are graphs
        jobs = min(args.jobs, len(items))
        if jobs > 1:
            # imported here: the process pool costs a tenth of the import of cli
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            reports = pool.map(_sweep_worker, items, chunksize=4)
        else:
            reports = map(_sweep_worker, items)
        for rep in reports:
            out.write(_RECORD.encode(rep) + "\n")
            failures += 0 if rep.get("agree", True) else 1
    if failures:
        print(f"{failures} graphs disagree with the expected property", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError (exit 5)
    instead of exiting 2, the code of a failed validation.  Subparsers
    are built with the same class."""

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="copnc", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="verify a partition certificate")
    p.add_argument("certificate", help="path to the JSON certificate")
    p.add_argument("--graph", help="optional graph spec the certificate must match")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("construct", help="build partitions and emit a certificate")
    p.add_argument("--method", required=True, choices=["matching", "bipartite", "conformal"])
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("family", help="emit a certified family triple")
    p.add_argument("name", nargs="?", help="petersen | flower:k | goldberg:k")
    p.add_argument("--emit-partitions", action="store_true")
    p.add_argument("--regenerate", action="store_true", help="re-derive and compare to frozen data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("switch-class", help="switching reachability classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--moves", required=True, choices=["plain", "odd", "conformal"])
    p.add_argument("--matching", help="comma separated edge ids (conformal moves)")
    p.add_argument("--cap", type=int, default=100000)
    p.set_defaults(fn=cmd_switch_class)

    p = sub.add_parser("sweep", help="conjecture checks over a corpus")
    p.add_argument("--input", required=True, help="file.g6 or file.edges")
    p.add_argument("--check", required=True, choices=["conj25", "thm12", "thm5"])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="JSONL report path (default stdout)")
    p.set_defaults(fn=cmd_sweep)
    return ap


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, once per process
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, Malformed, NonCubic, BadParameter) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
