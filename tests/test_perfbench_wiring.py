"""The benchmark's tracer against the library: every function it wraps
must still exist as a plain function, and every generator it must leave
alone must still be unwrapped, or a traced run of perfbench fails."""

import os
import subprocess
import sys
from pathlib import Path

import copnc

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # a fresh interpreter: install re-binds functions in every copnc module
    src = Path(copnc.__file__).resolve().parent.parent
    code = "\n".join([
        "import copnc",
        f"assert copnc.__file__.startswith({str(src)!r}), copnc.__file__",
        "from perfbench.tracing import Tracer",
        "Tracer().install()",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT)])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
