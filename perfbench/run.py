"""copnc benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep|construct|switching \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/copnc.  Each workload run
and each set-up measurement gets a fresh interpreter (perfbench/worker.py)
with PYTHONPATH set to the checkout's src, so no state leaks between runs
and no installed copnc is picked up.  Prints a readable report, then as
its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see README.md).  Files it writes go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "construct", "switching")
SETUPS = 9          # set-up samples per run; the measured run gives the last
RUN_CAP_S = 170.0   # the whole run, set-ups included, ends within this


def environment() -> dict:
    src = sorted((ROOT / "src" / "copnc").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line."""
    # its own process group, so a timeout also ends the probe it may run
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "copnc" / "__init__.py").is_file():
        print(f"perfbench: no copnc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    # the checkout's sources only; a fixed hash seed keeps set and dict orders
    # of strings the same from run to run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    deadline = time.monotonic() + RUN_CAP_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--outdir", str(outdir)]
    try:
        setups, walls = [], []
        for _ in range(SETUPS - 1):
            t0 = time.monotonic()
            ready = run_child([*common, "--seconds", "0", "--setup-only"], env, deadline)
            setups.append(ready["setup_s"])
            walls.append(ready["ready"] - t0)
        t0 = time.monotonic()
        res = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        setups.append(res["setup_s"])
        walls.append(res["ready"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    (outdir / f"run_{args.workload}_{args.seed}.json").write_text(json.dumps(res))
    metrics = res["metrics"]
    if not args.trace:
        # CPU time at the fast-state speed, like the op times
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        res["report"]["setup_s.wall"] = (statistics.median(walls), "s",
                                         f"wall time from the child's start, median of {len(walls)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {k: m["unit"] for k, m in metrics.items()}:
        print("perfbench: metrics and units differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    env_report = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={res['passes']}")
    print("env " + json.dumps(env_report, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit, note) in res["report"].items():
        print(f"  {name:42s} {value:14.6g} {unit} ({note}; report field)")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':42s} {fail_frac:14.6g} fraction ({res['failed']} of {res['attempted']}, "
          f"{res['wrong']} wrong)")
    for note in res["notes"]:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
