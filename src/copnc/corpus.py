"""Access to the embedded graph corpora.

The package ships every connected cubic multigraph (loops and parallel
edges allowed) on up to 10 vertices, and every connected simple cubic
graph on 12, generated once by tools/gen_corpus.py whose completeness is
verified by labeled-count mass checks.  corpus_all(n) loads one size of
the multigraph corpus and corpus_simple12() the simple n = 12 one; graphs
come back with stable ids like "n08_0041" (vertex count and position
within the file).
"""

from __future__ import annotations

from importlib import resources

from .graph import CubicGraph, parse_edge_list, parse_graph6

_DATA = "copnc.data"

MULTI_SIZES = (2, 4, 6, 8, 10)


def _read(name: str) -> str:
    return resources.files(_DATA).joinpath(name).read_text()


def corpus_all(n: int) -> list[tuple[str, CubicGraph]]:
    """All connected cubic multigraphs on n vertices (n in MULTI_SIZES)."""
    if n not in MULTI_SIZES:
        raise ValueError(f"no multigraph corpus for n={n}")
    graphs = parse_edge_list(_read(f"corpus_all_n{n:02d}.edges"))
    return [(f"n{n:02d}_{i:04d}", g) for i, g in enumerate(graphs)]


def corpus_simple12() -> list[tuple[str, CubicGraph]]:
    """All connected simple cubic graphs on 12 vertices."""
    out = []
    for i, line in enumerate(_read("corpus_simple_n12.g6").splitlines()):
        if line.strip():
            out.append((f"n12_{i:04d}", parse_graph6(line)))
    return out

