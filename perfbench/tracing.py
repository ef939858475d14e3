"""Outside-in tracing of the copnc layers, for the per-layer metrics.

The tracer wraps public functions of each layer from the outside: the
wrapper records one span per call (name, start, end, parent span, op id and
outcome) in flat arrays kept in memory, which are written out when the run
ends.  A function is re-bound in every copnc module that imported it by
name, because `from .partition import trails_from_marking` copies the
binding and a wrapper on the defining module alone would miss those calls.
Generator functions are never wrapped: a wrapper would time only the
creation of the generator, not the work done while it is consumed.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# span name -> (module, function) pairs whose calls it records
TARGETS = {
    "graph.coloring": [("copnc.graph", "proper_3_edge_coloring")],
    "graph.bridges": [("copnc.graph", "bridges")],
    "graph.matching": [("copnc.graph", "has_perfect_matching")],
    "graph.parse": [("copnc.graph", "parse_graph6"), ("copnc.graph", "parse_edge_list")],
    "partition.decode": [("copnc.partition", "trails_from_marking")],
    "partition.validate_normal": [("copnc.partition", "validate_normal")],
    "switching.conformal_switch": [("copnc.switching", "conformal_switch")],
    "switching.classes": [("copnc.switching", "partition_classes")],
    "construct.descent": [("copnc.construct", "conformal_triple")],
    "construct.route": [("copnc.construct", "conformal_triple_general")],
    "construct.contract": [("copnc.construct", "digon_contract"), ("copnc.construct", "triangle_contract")],
    "search.triple": [("copnc.search", "find_compatible_triple")],
    "search.check_graph": [("copnc.search", "check_graph")],
    "search.length3": [("copnc.search", "find_length3_triple")],
    "search.enumerate": [("copnc.search", "enumerate_nops"), ("copnc.search", "enumerate_normal_partitions")],
    "certificates.emit": [("copnc.certificates", "certificate"), ("copnc.certificates", "dumps")],
    "certificates.validate": [("copnc.certificates", "validate_certificate")],
    "families.replay": [
        ("copnc.families", "petersen_triple"),
        ("copnc.families", "flower_triple"),
        ("copnc.families", "goldberg_triple"),
    ],
    "cli": [("copnc.cli", "main")],
}

# Functions that return generators; they must stay unwrapped (see module doc).
GENERATORS = [
    ("copnc.graph", "perfect_matchings"),
    ("copnc.search", "enumerate_compatible_triples"),
    ("copnc.search", "enumerate_markings"),
]

ALL = ("sweep", "construct", "switching")

# metric, unit, span, statistic, workloads the metric must see calls on
LAYER_METRICS = [
    ("graph.coloring.s", "s", "graph.coloring", "total", ("construct",)),
    ("graph.coloring.calls", "count", "graph.coloring", "calls", ("construct",)),
    ("graph.bridges.s", "s", "graph.bridges", "total", ("sweep",)),
    ("graph.matching.s", "s", "graph.matching", "total", ("sweep",)),
    ("graph.parse.s", "s", "graph.parse", "total", ("sweep",)),
    ("partition.decode.calls", "count", "partition.decode", "calls", ("construct", "switching")),
    ("partition.decode.us_per_call", "us", "partition.decode", "us_per_call", ("construct", "switching")),
    ("partition.decode.cycle_frac", "fraction", "partition.decode", "cycle_frac", ("switching",)),
    ("partition.validate_normal.s", "s", "partition.validate_normal", "total", ("construct",)),
    ("switching.conformal_switch.calls", "count", "switching.conformal_switch", "calls", ("construct",)),
    ("switching.conformal_switch.us_per_call", "us", "switching.conformal_switch", "us_per_call", ("construct",)),
    ("switching.conformal_switch.none_frac", "fraction", "switching.conformal_switch", "none_frac", ("construct",)),
    ("switching.classes.self_s", "s", "switching.classes", "self", ("switching",)),
    ("construct.descent.self_s", "s", "construct.descent", "self", ("construct",)),
    ("construct.route.self_s", "s", "construct.route", "self", ("construct",)),
    ("construct.contract.s", "s", "construct.contract", "total", ("construct",)),
    ("search.triple.calls", "count", "search.triple", "calls", ("sweep",)),
    ("search.triple.s", "s", "search.triple", "total", ("sweep",)),
    ("search.triple.exhaust_frac", "fraction", "search.triple", "none_frac", ("sweep",)),
    ("search.triple.exhaust_s", "s", "search.triple", "none_total", ("sweep",)),
    ("search.check_graph.ms.p50", "ms", "search.check_graph", "ms_p50", ("sweep",)),
    ("search.check_graph.ms.p95", "ms", "search.check_graph", "ms_p95", ("sweep",)),
    ("search.length3.s", "s", "search.length3", "total", ("sweep",)),
    ("search.enumerate.s", "s", "search.enumerate", "total", ("switching",)),
    ("certificates.emit.s", "s", "certificates.emit", "total", ("construct", "sweep")),
    ("certificates.validate.s", "s", "certificates.validate", "total", ("construct",)),
    ("certificates.validate.calls", "count", "certificates.validate", "calls", ("construct",)),
    ("families.replay.s", "s", "families.replay", "total", ("construct",)),
    ("cli.self_s", "s", "cli", "self", ALL),
]

RETURNED, RETURNED_NONE, RAISED = 0, 1, 2


class WiringError(RuntimeError):
    """The wrappers do not cover the layer functions they are meant to."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.outcome = array("b")
        self.raised: Counter = Counter()  # (span name, exception type) -> count
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, op_id, outcome = self.parent, self.op_id, self.outcome
        stack, raised, clock, tracer = self.stack, self.raised, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            outcome.append(RETURNED)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome[i] = RAISED
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if result is None:
                outcome[i] = RETURNED_NONE
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and re-bind it in each copnc module."""
        import copnc.cli  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items() if k == "copnc" or k.startswith("copnc.")]
        originals = []
        for name, targets in TARGETS.items():
            for modname, attr in targets:
                fn = getattr(sys.modules[modname], attr, None)
                if not inspect.isfunction(fn):
                    raise WiringError(f"{modname}.{attr} is not a function")
                if inspect.isgeneratorfunction(fn):
                    raise WiringError(f"{modname}.{attr} is a generator function")
                wrapped = self.wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                originals.append(fn)
        for modname, attr in GENERATORS:
            if hasattr(getattr(sys.modules[modname], attr), "__wrapped__"):
                raise WiringError(f"{modname}.{attr} returns a generator and must stay unwrapped")
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise WiringError(f"{mod.__name__}.{key} still binds an unwrapped function")

    def layer_metrics(self, workload: str, passes: int, factors: list[float]) -> dict:
        """Per-pass totals and per-call ratios of every layer metric.  Each
        span's duration is multiplied by factors[op], its op's speed factor,
        to read at the machine's fast-state speed like the end-to-end times.

        Raises WiringError when a metric mapped to this workload saw no
        call, so a renamed or bypassed function cannot read as zero cost.
        """
        k = len(self.start)
        dur = [(self.end[i] - self.start[i]) * (factors[self.op_id[i]] if self.op_id[i] >= 0 else 1.0)
               for i in range(k)]
        child = [0.0] * k
        for i in range(k):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        spans: dict[str, dict] = {}
        for i in range(k):
            s = spans.setdefault(self.names[self.span_name[i]], {
                "total": 0.0, "self": 0.0, "none": 0, "none_total": 0.0, "durations": [],
            })
            s["total"] += dur[i]
            s["self"] += dur[i] - child[i]
            s["durations"].append(dur[i])
            if self.outcome[i] == RETURNED_NONE:
                s["none"] += 1
                s["none_total"] += dur[i]
        stats = {}
        for name, s in spans.items():
            d = sorted(s["durations"])
            calls = len(d)
            stats[name] = {
                "calls": calls / passes,
                "total": s["total"] / passes,
                "self": s["self"] / passes,
                "none_total": s["none_total"] / passes,
                "us_per_call": s["total"] / calls * 1e6,
                "none_frac": s["none"] / calls,
                "cycle_frac": self.raised[(name, "CycleError")] / calls,
                "ms_p50": statistics.median(d) * 1e3,
                "ms_p95": d[math.ceil(0.95 * calls) - 1] * 1e3,
            }
        out, missing = {}, []
        for metric, unit, span, stat, mapped in LAYER_METRICS:
            if span not in stats and workload in mapped:
                missing.append(metric)
            out[metric] = {"value": stats[span][stat] if span in stats else 0.0, "unit": unit}
        if missing:
            raise WiringError(f"no calls recorded on {workload} for: {', '.join(missing)}")
        return out

    def layer_time(self) -> float:
        """Time spent in the layers below the CLI: the sum of the self
        times of their spans, which equals the duration of the outermost
        ones, those whose parent is a CLI span."""
        cli = self.name_ids.get("cli", -1)
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.span_name[i] != cli and (p < 0 or self.span_name[p] == cli):
                total += self.end[i] - self.start[i]
        return total

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as one JSON document of columns; a span's name
        and parent are indices into "names" and into the columns, its
        outcome is 0 (returned), 1 (returned None) or 2 (raised)."""
        doc = {
            "meta": meta,
            "names": self.names,
            "raised": [[n, e, c] for (n, e), c in sorted(self.raised.items())],
            "spans": {
                "name": self.span_name.tolist(),
                "start": [round(x, 7) for x in self.start],
                "end": [round(x, 7) for x in self.end],
                "parent": self.parent.tolist(),
                "op": self.op_id.tolist(),
                "outcome": self.outcome.tolist(),
            },
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
