"""Per-layer tracing from outside the program.

The tracer wraps, in memory, the public functions and methods of each
tvqueue module that the workloads reach, and unwraps them afterwards.  A
function is replaced in every tvqueue module that holds it by name (the
CLI and `compare` import `solve_fluid`, `load_spec` and others directly),
and a method on the class that defines it.

Coarse calls (one CLI call, a fluid solve, a replication, a CSV write)
are recorded as spans: name, start, end, parent span and workload.  The
scalar evaluators of `SmoothFn` and `PatienceDist`, and `Moments`, run up
to millions of times per workload; a span each would cost more memory
than the run, so they are kept as per-name totals (calls, points, self
time), taken at the same boundaries.  Self time is a call's duration
minus the time its wrapped callees cover, so the self times of all
layers plus the CLI's own glue (`trace.remainder_s`) add up to the
traced wall time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units():
    """{per-layer metric name: unit}, in BENCHMARK.json's order."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# (module, function or Class.method, span name): recorded one span per call
SPAN_TARGETS = [
    ("tvqueue.model", "load_spec", "model.load_spec"),
    ("tvqueue.model", "validate", "model.validate"),
    ("tvqueue.fluid", "solve_fluid", "fluid.solve"),
    ("tvqueue.gaussian", "propagate", "gaussian.propagate"),
    ("tvqueue.gaussian", "IntervalKernels.build", "gaussian.kernel_build"),
    ("tvqueue.approx", "report", "approx.report"),
    ("tvqueue.approx", "write_report_csv", "approx.write_csv"),
    ("tvqueue.sim", "estimate", "sim.estimate"),
    ("tvqueue.sim", "run_replication", "sim.replication"),
    ("tvqueue.sim", "gen_arrivals", "sim.gen_arrivals"),
    ("tvqueue.sim", "staffing_epochs", "sim.staffing_epochs"),
    ("tvqueue.sim", "write_estimate_csv", "sim.write_csv"),
    ("tvqueue.sim", "write_path_csv", "sim.write_csv"),
    ("tvqueue.compare", "compare_metrics", "compare.metrics"),
    ("tvqueue.compare", "write_compare_csv", "compare.write_csv"),
    ("tvqueue.compare", "write_summary", "compare.write_csv"),
    ("tvqueue.patience", "ExponentialPatience.sample", "patience.sample"),
    ("tvqueue.patience", "H2Patience.sample", "patience.sample"),
    ("tvqueue.patience", "TabulatedPatience.sample", "patience.sample"),
]

# (module, class names, method names, total name, points argument index)
LEAF_TARGETS = [
    ("tvqueue.functions", ("ConstantFn", "LinearFn", "SinusoidFn", "PiecewisePolyFn"),
     ("__call__", "deriv", "deriv2"), "functions", 1),
    ("tvqueue.patience",
     ("PatienceDist", "ExponentialPatience", "H2Patience", "TabulatedPatience"),
     ("cdf", "survival", "pdf", "hazard"), "patience", 1),
    ("tvqueue.sim", ("Moments",), ("add", "merge"), "sim.moments", None),
]


class Tracer:
    """Wraps tvqueue's layers for one workload and keeps spans in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []             # [id, name, start, end, parent, self_s]
        self.totals = {}            # leaf name -> [calls, points, self_s]
        self.counts = {"fluid.ext_points": 0, "sim.events": 0}
        self._stack = [[0.0, None]]  # [time covered by wrapped callees, span id]
        self._patched = []          # (owner, attribute, original)
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][1]
            frame = [0.0, sid]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._stack[-1][0] += t1 - t0
                self.spans.append([sid, name, t0, t1, parent, t1 - t0 - frame[0]])
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _leaf(self, name, fn, points_arg):
        tot = self.totals.setdefault(name, [0, 0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0, self._stack[-1][1]]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._stack[-1][0] += dt
                tot[0] += 1
                if points_arg is not None and len(args) > points_arg:
                    tot[1] += int(np.size(args[points_arg]))
                tot[2] += dt - frame[0]
        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _on_solve(self, sol):
        self.counts["fluid.ext_points"] += sum(len(iv.ext_t) for iv in sol.intervals)

    def _on_replication(self, path):
        self.counts["sim.events"] += int(path.N[-1] + path.D[-1] + path.A[-1]
                                         + path.forced[-1])

    def _on_epochs(self, epochs):
        self.counts["sim.events"] += len(epochs[0])

    def install(self):
        """Wrap every target, in each tvqueue module that holds it."""
        hooks = {"fluid.solve": self._on_solve, "sim.replication": self._on_replication,
                 "sim.staffing_epochs": self._on_epochs}
        modules = [m for k, m in sys.modules.items()
                   if (k == "tvqueue" or k.startswith("tvqueue.")) and m is not None]
        for modname, attr, name in SPAN_TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if isinstance(fn, staticmethod):
                    self._patch(cls, meth, staticmethod(self._span(name, fn.__func__)))
                else:
                    self._patch(cls, meth, self._span(name, fn))
                continue
            original = getattr(mod, attr)
            wrapped = self._span(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        for modname, classes, methods, name, points_arg in LEAF_TARGETS:
            for cls_name in classes:
                cls = getattr(sys.modules[modname], cls_name)
                for meth in methods:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self._leaf(name, cls.__dict__[meth], points_arg))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap_entry(self, cli_main):
        """The CLI entry point, traced as the root span of each call."""
        return self._span("cli.main", cli_main)

    # -- results ----------------------------------------------------------

    def self_time(self, name):
        return sum(s[5] for s in self.spans if s[1] == name)

    def layer_metrics(self):
        """Per-layer metrics of the traced CLI calls (BENCHMARK.json names)."""
        def leaf(name):
            calls, points, self_s = self.totals.get(name, (0, 0, 0.0))
            return calls, (points / calls if calls else 0.0), self_s

        out = {}
        for prefix in ("functions", "patience"):
            out[f"{prefix}.calls"], out[f"{prefix}.points_per_call"], \
                out[f"{prefix}.self_s"] = leaf(prefix)
        out["sim.moments_s"] = leaf("sim.moments")[2]
        for name in ("model.load_spec", "model.validate", "fluid.solve",
                     "gaussian.propagate", "gaussian.kernel_build", "approx.report",
                     "approx.write_csv", "sim.estimate", "sim.replication",
                     "sim.gen_arrivals", "sim.staffing_epochs", "sim.write_csv",
                     "compare.metrics", "compare.write_csv", "patience.sample"):
            out[f"{name}_s"] = self.self_time(name)
        out["model.validate_calls"] = sum(s[1] == "model.validate" for s in self.spans)
        out["sim.staffing_epochs_calls"] = sum(s[1] == "sim.staffing_epochs"
                                               for s in self.spans)
        out["fluid.ext_points"] = self.counts["fluid.ext_points"]
        rep = out["sim.replication_s"]
        out["sim.events_per_s"] = self.counts["sim.events"] / rep if rep > 0 else 0.0
        wall = sum(s[3] - s[2] for s in self.spans if s[1] == "cli.main")
        layered = (sum(s[5] for s in self.spans if s[1] != "cli.main")
                   + sum(t[2] for t in self.totals.values()))
        out["trace.wall_s"] = wall
        out["trace.remainder_s"] = wall - layered
        return out

    def write(self, path):
        """Spans and leaf totals as JSON, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": self.workload,
                "spans": [{"id": s[0], "name": s[1], "start": s[2] - t0, "end": s[3] - t0,
                           "parent": s[4], "self": s[5], "workload": self.workload}
                          for s in self.spans],
                "totals": {k: {"calls": v[0], "points": v[1], "self": v[2]}
                           for k, v in self.totals.items()},
                "counts": self.counts,
            }, fh)


def import_metrics(importtime_stderr):
    """init.* self times (s) from `python -X importtime` output."""
    scipy_us = self_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            us = int(fields[0])
        except ValueError:          # the header line
            continue
        mod = fields[2].strip()
        if mod == "scipy" or mod.startswith("scipy."):
            scipy_us += us
        elif mod == "tvqueue" or mod.startswith("tvqueue."):
            self_us += us
    return {"init.scipy_import_s": scipy_us * 1e-6, "init.self_import_s": self_us * 1e-6}
