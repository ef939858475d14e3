"""Every definition in src/copnc serves the program.

The library holds what the CLI, the routes, the tools and the benchmark
call; a helper only tests call belongs with the tests.  The scan parses
src, tools and perfbench and counts as a use of a name every load of it
as a variable or an attribute, and every string constant equal to it
(perfbench's tracer names the functions it wraps in strings).  The
imports of copnc/__init__.py re-export names and are no use.  A use
inside the definition itself does not count, and neither does one inside
another definition that has no use: a helper only a dead helper calls is
dead too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "copnc"

def _definitions():
    """(file, name, first line, last line) of every top-level function and
    class of the package and every public method of its classes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [
                    (path, sub.name, sub.lineno, sub.end_lineno)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return out


def _uses():
    """name -> [(file, line)] of every use in src, tools and perfbench."""
    uses = {}
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _dead():
    """Names of the definitions with no use outside themselves and the
    other dead definitions."""
    defs, uses = _definitions(), _uses()
    dead = set()
    while True:
        spans = [(path, a, b) for path, name, a, b in defs if name in dead]
        found = {
            name
            for path, name, a, b in defs
            if not any(
                not (where == path and a <= line <= b)
                and not any(where == p and lo <= line <= hi for p, lo, hi in spans)
                for where, line in uses.get(name, ())
            )
        }
        if found == dead:
            return dead
        dead = found


def test_every_definition_has_a_caller():
    dead = sorted(_dead())
    assert not dead, f"only tests call {dead}: move them to tests/"
