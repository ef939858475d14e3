"""Every script in tools/ imports in a fresh interpreter, each group of
tools/rate.py runs alone in one, and rate.py runs all its groups.  The
timing tool reads private names of the library (construct._conformal_seed,
search._Search, families._frozen, ...), some only inside its functions, so
a rename there fails these tests and not only the next run of the tool."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# each group's header columns and number of rows
TABLES = {
    "decode": ("case markings n decodes cpu_s us/decode", 4),
    "search": ("case graphs solutions nodes rows cpu_s nodes/s ratio", 14),
    "route": ("case n cpu_s ratio switch_us color_ms contract_ms seed_ms descent_ms lift_ms", 8),
    "cert": ("case n bytes write_ms loads_ms validate_ms validate_g_ms", 7),
    "class": ("query pool classes calls cpu_s ms/call enum_ms us/part query_ms", 18),
    "family": ("family k n ms ratio replay_ms", 8),
    "startup": ("case runs value unit", 4),
}


SCRIPTS = sorted(p.stem for p in TOOLS.glob("*.py"))
# a group's case is named <group>_rate: the first six keep the names of the
# one-group scripts they were before rate.py
GROUP_CASES = {f"{group}_rate": group for group in TABLES}


@pytest.mark.parametrize("name", SCRIPTS + sorted(GROUP_CASES))
def test_tool_imports(name):
    # each tool puts the checkout's src on sys.path itself; tools/ is on it
    # as it is when the tool runs as a script
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); "
    group = GROUP_CASES.get(name)
    if group is None:
        code += f"import {name}"
    else:
        code += f"import rate; rate.RUN_SECONDS = 0.001; sys.exit(rate.main([{group!r}, '--repeat', '1']))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    if group is not None:
        header, rows = TABLES[group]
        lines = out.stdout.rstrip("\n").split("\n")
        assert lines[0].split() == header.split()
        assert len(lines) == 1 + rows


def test_rate_runs_every_group(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))  # undone, with rate's own inserts, at teardown
    import rate

    monkeypatch.setattr(rate, "RUN_SECONDS", 0.001)
    assert rate.main(["--repeat", "1"]) == 0
    tables = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert len(tables) == len(TABLES)
    printed = dict(zip(TABLES, tables))
    for group, (header, rows) in TABLES.items():
        lines = printed[group].split("\n")
        assert lines[0].split() == header.split(), group
        assert len(lines) == 1 + rows, group
    # the total of the benchmark's 15 queries, then the Petersen rows it leaves out
    class_rows = printed["class"].split("\n")
    assert class_rows[16].startswith("all 15")
    assert [r.split()[0] for r in class_rows[17:]] == ["petersen:plain", "petersen:odd"]
    with pytest.raises(SystemExit) as exc:
        rate.main(["--repeat", "0"])
    assert exc.value.code == 2
