"""The line-by-line edge-list tokenizer: the oracle for
copnc.graph.parse_edge_list, and to_edge_list, the writer the tests feed
it and the library parser with.

This is the parser the library ran before it stripped comments with one
regular expression and split the whole text once.  Each line of
str.splitlines loses everything from its first '#', is stripped and
split, and the tokens are read in pairs, each pair converted as the
record walk reaches it.
"""

from copnc.graph import CubicGraph, Malformed


def parse_edge_list_by_lines(text: str) -> list[CubicGraph]:
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) % 2:
        raise Malformed("odd token count in edge-list text")
    pairs = [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]
    graphs = []
    i = 0
    while i < len(pairs):
        try:
            n, m = int(pairs[i][0]), int(pairs[i][1])
        except ValueError as exc:
            raise Malformed(f"bad header near record {len(graphs)}") from exc
        if n <= 0 or 3 * n != 2 * m:
            raise Malformed(f"record {len(graphs)}: header '{n} {m}' needs n > 0 and 3n = 2m")
        i += 1
        if m > len(pairs) - i:
            raise Malformed("edge-list record truncated")
        edges = []
        for u, v in pairs[i : i + m]:
            try:
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise Malformed(f"bad edge line '{u} {v}'") from exc
        i += m
        graphs.append(CubicGraph(n, edges))
    if not graphs:
        raise Malformed("no records in edge-list text")
    return graphs


def to_edge_list(g: CubicGraph) -> str:
    """g as one edge-list record: the "n m" header, then one "u v" line per
    edge in edge id order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.endpoints)
    return "\n".join(lines) + "\n"
