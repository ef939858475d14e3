"""One workload run in a fresh interpreter; started by run.py.

Builds the workload (the set-up), reports when the first op is ready, then
runs the workload's ops, pass after pass, until the time is up, checking
the outputs of each op outside the timed region.  With --trace 1 the time
is split: a first phase runs untraced, then the tracer is installed and a
second phase runs traced; the per-layer metrics come from the second and
the tracing overhead from the ratio of the two.  Op times are CPU times,
taken to the machine's fast-state speed measured while each op runs (see
GAUGE_S), and each op's time is the median over its repetitions.

The last line on stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import tracing
from workloads import WORKLOADS, CallResult, circular_ladder

ROOT = Path(__file__).resolve().parent.parent

# The speed of the shared 2-vCPU VM this benchmark was defined on is not
# steady: each vCPU flips, independently of the other and often several
# times a second, between a fast state and one about half as fast (its
# core is shared with other tenants).  An op spends a share of its time in
# each state that changes from run to run, and a job timed before or after
# the op cannot see it.  So the speed is sampled while copnc runs: a
# SIGPROF handler times a short gauge job every SAMPLE_EVERY_S of CPU time,
# and each op's CPU time, less the gauge's, is taken to the fast-state
# speed by the mean of GAUGE_S / sample over the samples taken in and
# around it.  The gauge has the shape of copnc's hot loop, decoding
# markings of a cubic graph into trails, and slows down in the slow state
# by about as much as copnc does (1.9 times against 1.9 to 2.2 times).
GAUGE_MARKINGS = 3
GAUGE_S = 0.00085      # the gauge's CPU time in the fast state on that VM
SAMPLE_EVERY_S = 0.025  # CPU time between two samples inside an op
SETUP_EVERY_S = 0.01    # the same during the set-up, which is short
SAMPLES_BETWEEN = 3    # samples taken between two ops


class _Trail:
    __slots__ = ("vertices", "edges", "key")

    def __init__(self, vertices: list, edges: list):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.key = min((self.vertices, self.edges), (self.vertices[::-1], self.edges[::-1]))


def _gauge_inputs():
    """A circular ladder with n = 200: the darts 2e, 2e+1 of each edge e
    at each vertex, the vertex of each dart, and seeded markings (one dart
    per vertex)."""
    rng = random.Random(0)
    n, edges = circular_ladder(100, rng)
    slots: list[list[int]] = [[] for _ in range(n)]
    at = [0] * (2 * len(edges))
    for e, (u, v) in enumerate(edges):
        slots[u].append(2 * e)
        slots[v].append(2 * e + 1)
        at[2 * e], at[2 * e + 1] = u, v
    return slots, at, [[rng.choice(s) for s in slots] for _ in range(GAUGE_MARKINGS)]


GAUGE_INPUTS = _gauge_inputs()


def gauge() -> float:
    """CPU seconds to decode the gauge markings into sorted trails."""
    slots, at, markings = GAUGE_INPUTS
    t0 = time.thread_time()
    for marking in markings:
        succ = {}
        for v, d in enumerate(marking):
            a, b = (x for x in slots[v] if x != d)
            succ[a], succ[b] = b, a
        trails = []
        done = [False] * len(marking)
        for v, d in enumerate(marking):
            if done[v]:
                continue
            vertices, edges = [v], []
            while True:  # ends: the walk from a marked dart meets another
                edges.append(d >> 1)
                w = at[d ^ 1]
                vertices.append(w)
                if marking[w] == d ^ 1:
                    done[w] = True
                    break
                d = succ[d ^ 1]
            trails.append(_Trail(vertices, edges))
        trails.sort(key=lambda t: t.key)
    return time.thread_time() - t0


def cpu_time() -> float:
    """CPU seconds of this process's one thread and of the children it has
    waited for.  Unlike wall time it leaves out the time other processes
    hold the CPUs.  (The process clock would do, but while an interval
    timer is armed Linux reads it only to the scheduler tick.)"""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


class Speedometer:
    """Gauge timings taken between ops and, while armed (as a context
    manager), from a SIGPROF handler every SAMPLE_EVERY_S of CPU time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds spent sampling
        self.every = SAMPLE_EVERY_S

    def sample(self, *_signal) -> None:
        c0 = time.thread_time()
        self.samples.append(gauge())
        self.spent += time.thread_time() - c0

    def between(self) -> None:
        for _ in range(SAMPLES_BETWEEN):
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def factor(self, since: int) -> float:
        """Factor that takes CPU time spent since sample `since` to the
        fast-state speed: the mean of GAUGE_S / sample from there on."""
        return statistics.fmean(GAUGE_S / g for g in self.samples[since:])


def call_cli(cli, argv: list[str]) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op boundary: record the failure, keep running
            traceback.print_exc()
            rc = None
    return CallResult(rc, out.getvalue(), err.getvalue())


class Phase:
    """Counts and timings of the ops run in one phase."""

    def __init__(self):
        self.passes = 0  # whole passes
        self.wall = 0.0  # timed wall time
        self.attempted = self.failed = self.wrong = 0
        # label, size, units, CPU s less sampling, wall s, speed factor
        self.log: list[tuple[str, Optional[str], int, float, float, float]] = []
        self.notes: list[str] = []

    def ops(self) -> dict[str, tuple[Optional[str], int, float]]:
        """Label -> (size, units, seconds) of each op of the pass: the
        median over its repetitions of its CPU time at the fast-state
        speed."""
        times: dict[str, list[float]] = {}
        meta = {}
        for label, size, units, cpu, _, factor in self.log:
            times.setdefault(label, []).append(cpu * factor)
            meta[label] = (size, units)
        return {label: (*meta[label], statistics.median(ts)) for label, ts in times.items()}

    def rate(self) -> float:
        """Completed units per second of one pass at the fast-state speed."""
        ops = self.ops().values()
        done = 1 - self.failed / self.attempted
        return done * sum(units for _, units, _ in ops) / sum(t for _, _, t in ops)


def run_phase(wl, cli, seconds: float, speed: Speedometer, tracer=None) -> Phase:
    """Run ops until `seconds` have gone by and at least one whole pass is
    done; a traced phase ends on a pass boundary, so its per-pass layer
    figures cover each op once per pass."""
    ph = Phase()
    op_id = 0
    began = time.perf_counter()
    speed.between()
    while True:
        for op in wl.ops:
            if tracer is not None:
                tracer.op = op_id
            first, spent = len(speed.samples) - SAMPLES_BETWEEN, speed.spent
            t0, c0 = time.perf_counter(), cpu_time()
            with speed:
                results = [call_cli(cli, argv) for argv in op.calls]
            c1, t1 = cpu_time(), time.perf_counter()
            cpu = c1 - c0 - (speed.spent - spent)
            speed.between()
            if tracer is not None:
                tracer.op = -1
            op_id += 1
            failed, wrong = wl.check(op, results)
            ph.wall += t1 - t0
            ph.attempted += op.weight
            ph.failed += failed
            ph.wrong += wrong
            ph.log.append((op.label, op.size, op.weight, cpu, t1 - t0, speed.factor(first)))
            if failed and len(ph.notes) < 5:
                tail = next((r.err.strip().splitlines()[-1] for r in results if r.err.strip()), "")
                ph.notes.append(f"{op.label}: {failed} failed ({wrong} wrong) {tail[:160]}")
            if tracer is None and ph.passes and time.perf_counter() - began >= seconds:
                return ph
        ph.passes += 1
        if time.perf_counter() - began >= seconds:
            return ph


def end_to_end(ph: Phase, names: dict) -> tuple[dict, dict]:
    """The end-to-end metrics (CPU times at the fast-state speed), and the
    report fields printed beside them, under the names the workload gives
    them: wall-time figures and medians."""
    ops = ph.ops().values()

    def per_unit(size):
        return sum(t for s, _, t in ops if s == size) / sum(u for s, u, _ in ops if s == size)

    def latencies(size=None):  # each unit of an op gets the op's mean per unit
        return [t / u for s, u, t in ops if size is None or s == size for _ in range(u)]

    large, small = per_unit("large"), per_unit("small")
    wall = [(s, u, w) for _, s, u, _, w, _ in ph.log]
    large_wall = sum(w for s, _, w in wall if s == "large") / sum(u for s, u, _ in wall if s == "large")
    metrics = {
        "ops_per_s": {"value": ph.rate(), "unit": "ops/s"},
        "op_s.large.mean": {"value": large, "unit": "s"},
        "op_s.growth": {"value": large / small, "unit": "ratio"},
        "op_s.p50": {"value": statistics.median(latencies()), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    report = {
        "speed.factor": (statistics.median(f for *_, f in ph.log), "ratio",
                         "median over the ops; 1 = the fast state, 0.5 = half as fast"),
        "ops_per_s.wall": ((ph.attempted - ph.failed) / ph.wall, "ops/s", "wall time, all ops"),
        "op_s.large.mean.wall": (large_wall, "s", "wall time, all ops"),
        "op_s.large.p50": (statistics.median(latencies("large")), "s",
                           f"median of {len(latencies('large'))}"),
        "op_s.growth.p50": (statistics.median(latencies("large")) / statistics.median(latencies("small")),
                            "ratio", "of the medians"),
        "ops.run": (len(ph.log), "count", f"{ph.passes} whole passes of {len(ops)} ops"),
    }
    return metrics, {names.get(k, k): v for k, v in report.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    speed = Speedometer()
    try:
        # The set-up is timed from here: importing copnc and building the
        # inputs.  The interpreter's start and the benchmark's own imports
        # before this point do not depend on copnc and cannot be sampled.
        began = cpu_time()
        speed.between()
        speed.every = SETUP_EVERY_S
        with speed:
            wl = WORKLOADS[args.workload](args.seed, workdir)
            import copnc.cli as cli
        speed.every = SAMPLE_EVERY_S
        setup_cpu = cpu_time() - began - speed.spent
        ready = time.monotonic()
        speed.between()
        result: dict = {"ready": ready, "setup_s": setup_cpu * speed.factor(0)}
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"copnc imported from {cli.__file__}, not from {ROOT / 'src'}")
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if args.trace:
            plain = run_phase(wl, cli, args.seconds / 2, speed)
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_phase(wl, cli, args.seconds / 2, speed, tracer)
            metrics = tracer.layer_metrics(args.workload, traced.passes, [f for *_, f in traced.log])
            metrics["trace.ops_per_s"] = {"value": traced.rate(), "unit": "ops/s"}
            metrics["trace.overhead"] = {"value": plain.rate() / traced.rate(), "unit": "ratio"}
            metrics["trace.layer_share"] = {"value": tracer.layer_time() / traced.wall, "unit": "fraction"}
            report = {}
            phases = [plain, traced]
            tracer.dump(outdir / f"trace_{args.workload}.json",
                        {"workload": args.workload, "seed": args.seed, "passes": traced.passes,
                         "ops_per_pass": len(wl.ops)})
        else:
            phase = run_phase(wl, cli, args.seconds, speed)
            metrics, report = end_to_end(phase, getattr(wl, "REPORT_NAMES", {}))
            phases = [phase]
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        wrong = sum(p.wrong for p in phases)
        notes = [n for p in phases for n in p.notes]
        if hasattr(wl, "probe"):
            probe_failed, probe_wrong, note = wl.probe(ROOT)
            report["probe.failed"] = (probe_failed, "count", "outside attempted and failed, see README")
            wrong += probe_wrong
            notes.append(note)
        result.update(
            passes=[p.passes for p in phases],
            attempted=attempted,
            failed=failed,
            wrong=wrong,
            notes=notes,
            metrics=metrics,
            report=report,
            ops=[entry for p in phases for entry in p.log],
        )
        print(json.dumps(result))
        return 0
    except tracing.WiringError as exc:
        print(f"perfbench: trace wiring: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
