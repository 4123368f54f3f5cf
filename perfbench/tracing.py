"""Per-layer tracing of an ehnet sweep, from outside the package.

`install` wraps the public functions and methods of each ehnet module.  A
function is replaced at every name it is bound to in every loaded ehnet
module, because callers look it up there: patching only the defining
module would miss e.g. the `run_eh` that `ehnet.experiments` imported by
name.  Methods (`Stream.__init__`, `*.sample`, `*.desired_powers`,
`*.evaluate`) are wrapped on their classes, so every instance sees them.

Each wrapped call records one span ``(name, start, end, parent, note)`` in
memory; `Tracer.dump` writes them out when the sweep is over, and
`layer_metrics` derives each layer's self time and counts from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time

# Functions wrapped at every binding, as (defining module, name); the
# name is also the span's name.
FUNCTIONS = (
    ("ehnet.experiments", "run_experiment"),
    ("ehnet.experiments", "build_config"),
    ("ehnet.experiments", "trial_seed"),
    ("ehnet.experiments", "closed_form_baseline"),
    ("ehnet.experiments", "write_csv"),
    ("ehnet.experiments", "load_spec"),
    ("ehnet.simulator", "run_eh"),
    ("ehnet.simulator", "run_non_eh"),
    ("ehnet.policies", "solve_lambda"),
    ("ehnet.stochastic", "expectation_quadrature"),
    ("ehnet.battery", "trajectory"),
)

# Methods wrapped on every class of the module that defines them.
METHODS = (
    ("ehnet.stochastic", "sample"),
    ("ehnet.policies", "desired_powers"),
    ("ehnet.utilities", "evaluate"),
)

# Per-layer metrics with their units, in report order.
METRICS = {
    "battery.trajectory_s": "s",
    "battery.trajectory_calls": "count",
    "battery.slot_links": "count",
    "battery.ns_per_slot_link": "ns",
    "simulator.self_s": "s",
    "simulator.runs": "count",
    "simulator.run_ms_p50": "ms",
    "simulator.run_ms_p99": "ms",
    "stochastic.stream_s": "s",
    "stochastic.stream_calls": "count",
    "stochastic.sample_s": "s",
    "stochastic.sample_calls": "count",
    "stochastic.quadrature_s": "s",
    "stochastic.quadrature_calls": "count",
    "policies.desired_s": "s",
    "policies.desired_calls": "count",
    "policies.solve_lambda_s": "s",
    "policies.solve_lambda_calls": "count",
    "policies.quadrature_per_solve": "count",
    "utilities.evaluate_s": "s",
    "utilities.evaluate_calls": "count",
    "experiments.baseline_s": "s",
    "experiments.baseline_calls": "count",
    "experiments.baseline_distinct_frac": "fraction",
    "experiments.self_s": "s",
    "experiments.write_csv_s": "s",
    "cli.load_spec_s": "s",
    "trace.overhead_s": "s",
}


def _slot_links(args):
    shape = getattr(args[0], "shape", ())
    return shape[0] * (shape[1] if len(shape) > 1 else 1)


def _baseline_cell(args):
    point = args[1]
    return (point.p_db, point.ratio, point.m)


# Extra facts recorded on a span, computed from the call's arguments.
_NOTES = {"trajectory": _slot_links, "closed_form_baseline": _baseline_cell}


class Tracer:
    """Holds the spans of one process in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # A tuple of atoms, which the garbage collector stops
                # tracking, so a long trace does not slow collections.
                spans[index] = (name, start, end, parent,
                                note(args) if note else None)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that undoes the patches."""
    import ehnet.cli  # noqa: F401  -- load every module before patching

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "ehnet" or name.startswith("ehnet.")]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for mod_name, attr in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = tracer.wrap(attr, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, key, wrapper)

    stream = sys.modules["ehnet.stochastic"].Stream
    patch(stream, "__init__", tracer.wrap("Stream", stream.__init__))
    for mod_name, method in METHODS:
        mod = sys.modules[mod_name]
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod_name and method in vars(cls):
                patch(cls, method, tracer.wrap(method, vars(cls)[method]))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Self times and counts per layer, from one sweep's spans.

    A span's self time is its duration minus that of its direct children.
    `experiments.baseline_s`, `experiments.write_csv_s` and
    `cli.load_spec_s` are inclusive times, so `baseline_s` overlaps the
    self time of the layers it calls.  `trace.overhead_s` needs an
    untraced sweep to compare with and is filled in by the caller.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total_s: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    slot_links = sum(note for name, *_, note in spans if name == "trajectory")
    runs_ms = [1e3 * (end - start) for name, start, end, _, _ in spans
               if name in ("run_eh", "run_non_eh")]
    solves = c("solve_lambda")
    quad_in_solves = sum(
        1 for name, _, _, parent, _ in spans
        if name == "expectation_quadrature" and parent >= 0
        and spans[parent][0] == "solve_lambda"
    )
    cells = [tuple(note) for name, *_, note in spans
             if name == "closed_form_baseline"]
    return {
        "battery.trajectory_s": s("trajectory"),
        "battery.trajectory_calls": c("trajectory"),
        "battery.slot_links": slot_links,
        "battery.ns_per_slot_link":
            1e9 * s("trajectory") / slot_links if slot_links else 0.0,
        "simulator.self_s": s("run_eh", "run_non_eh"),
        "simulator.runs": len(runs_ms),
        "simulator.run_ms_p50": statistics.median(runs_ms) if runs_ms else 0.0,
        "simulator.run_ms_p99": _p99(runs_ms) if runs_ms else 0.0,
        "stochastic.stream_s": s("Stream"),
        "stochastic.stream_calls": c("Stream"),
        "stochastic.sample_s": s("sample"),
        "stochastic.sample_calls": c("sample"),
        "stochastic.quadrature_s": s("expectation_quadrature"),
        "stochastic.quadrature_calls": c("expectation_quadrature"),
        "policies.desired_s": s("desired_powers"),
        "policies.desired_calls": c("desired_powers"),
        "policies.solve_lambda_s": s("solve_lambda"),
        "policies.solve_lambda_calls": solves,
        "policies.quadrature_per_solve":
            quad_in_solves / solves if solves else 0.0,
        "utilities.evaluate_s": s("evaluate"),
        "utilities.evaluate_calls": c("evaluate"),
        "experiments.baseline_s": total_s.get("closed_form_baseline", 0.0),
        "experiments.baseline_calls": len(cells),
        "experiments.baseline_distinct_frac":
            len(set(cells)) / len(cells) if cells else 0.0,
        "experiments.self_s": s("run_experiment", "build_config", "trial_seed"),
        "experiments.write_csv_s": total_s.get("write_csv", 0.0),
        "cli.load_spec_s": total_s.get("load_spec", 0.0),
    }
