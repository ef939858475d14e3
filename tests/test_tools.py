"""Every script in tools/ imports in a fresh interpreter.  The timing
tools read private names of the library (construct._conformal_seed,
search._Search, search._conformal_rows, ...), so a rename there fails
this test and not only the next run of the tool."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize("name", sorted(p.stem for p in TOOLS.glob("*.py")))
def test_tool_imports(name):
    # each tool puts the checkout's src on sys.path itself; tools/ is on it
    # as it is when the tool runs as a script
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import {name}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
