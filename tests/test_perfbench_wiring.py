"""The benchmark's tracer against the library: every function it wraps
must still exist as a plain function, every generator it must leave
alone must still be unwrapped, and one traced pass of a workload must
call every layer its metrics read, or a traced run of perfbench fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import copnc

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(copnc.__file__).resolve().parent.parent


def run_fresh(*lines: str) -> subprocess.CompletedProcess:
    """The lines as a program in a fresh interpreter that imports this
    copnc and the benchmark from this checkout."""
    code = "\n".join([
        "import copnc",
        f"assert copnc.__file__.startswith({str(SRC)!r}), copnc.__file__",
        "from perfbench.tracing import Tracer",
        *lines,
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)


def test_tracer_installs():
    # a fresh interpreter: install re-binds functions in every copnc module
    out = run_fresh("Tracer().install()")
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("workload", ["construct", "switching", "sweep"])
def test_traced_pass_calls_every_mapped_layer(tmp_path, workload):
    # layer_metrics raises WiringError when a metric mapped to the workload
    # saw no call, as when a traced function is bypassed
    out = run_fresh(
        "import contextlib, io",
        "from pathlib import Path",
        "import copnc.cli",
        "from perfbench.workloads import WORKLOADS",
        "tracer = Tracer()",
        "tracer.install()",
        f"wl = WORKLOADS[{workload!r}](1, Path({str(tmp_path)!r}))",
        "for op in wl.ops:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        rcs = [copnc.cli.main(argv) for argv in op.calls]",  # main as install re-bound it
        "    assert rcs == [0] * len(rcs), (op.label, rcs)",
        f"tracer.layer_metrics({workload!r}, 1, [])",
    )
    assert out.returncode == 0, out.stderr
