"""Per-layer spans for one traced benchmark invocation.

The tracer changes no file under ``src/``: it replaces the names through
which one isodag module calls a public function of another module (for
example ``isodag.experiments.lse_fit``) with a wrapper that records a span.
Each span holds its name, layer, start, end, parent span and thread.  Every
thread keeps its own span stack, so the overlapping ``lse_fit`` spans of a
thread pool nest correctly; a span opened on a thread whose stack is empty
takes as parent the innermost open span of the installing thread, which is
the sweep waiting on the pool.  Spans stay in memory until ``metrics()``.

A layer's self time is the duration of its outermost spans minus the part
of that interval covered by direct child spans of other layers.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module whose name is replaced, function name, layer that owns the function)
WRAPPED = (
    ("cli", "run_fixed_sweep", "experiments"),
    ("cli", "table1", "experiments"),
    ("cli", "emit_report", "experiments"),
    ("cli", "antichain_stats", "design"),
    ("experiments", "lse_fit", "solvers"),
    ("experiments", "build_lattice", "orders"),
    ("experiments", "statdim_mc", "complexity"),
    ("experiments", "noise_stream", "complexity"),
    ("experiments", "generate_signal", "signals"),
    ("complexity", "lse_fit", "solvers"),
    ("complexity", "noise_stream", "complexity"),
    ("design", "build_design_dag", "orders"),
    ("design", "maximum_antichain", "orders"),
    ("design", "noise_stream", "complexity"),
    ("design", "draw_design", "design"),
)

# Percentiles tried for the solver's tail, highest first.  The tail is the
# highest one with at least ten calls beyond it; with fewer than 20 calls
# none qualifies, and the maximum is reported as percentile 100.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)


def _argument(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _describe(name, args, kwargs, result, info):
    """Counts recorded at the boundary, outside the timed interval."""
    import numpy as np

    if name == "lse_fit":
        dag = _argument(args, kwargs, 0, "dag")
        y = np.asarray(_argument(args, kwargs, 1, "y"), dtype=float)
        w = _argument(args, kwargs, 2, "weights")
        w = dag.weights() if w is None else np.asarray(w, dtype=float)
        norm = float(np.dot(w * y, y))
        info["iterations"] = result.iterations
        info["violation"] = result.max_violation
        info["kkt_gap_rel"] = abs(result.inner_product_gap) / norm if norm > 0 else 0.0
    elif name in ("build_lattice", "build_design_dag"):
        info["vertices"] = result.n_vertices
        info["cover_edges"] = len(result.cover_edges)
    elif name == "maximum_antichain":
        info["size"] = len(result.antichain)
    elif name == "run_fixed_sweep":
        config = _argument(args, kwargs, 0, "config")
        info["replicates"] = config.replicates * len(config.n_grid)
    elif name == "table1":
        info["replicates"] = _argument(args, kwargs, 0, "replicates", 500) * len(result[0])
    elif name == "emit_report":
        info["bytes"] = os.path.getsize(result)


class Tracer:
    """Collects spans from the wrappers it installs; ``uninstall`` undoes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = self._stack()
        self._saved = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, failure: type):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            owner = stack or self._root_stack
            parent = owner[-1] if owner else None
            span = Span(next(self._ids), name, layer, 0.0, 0.0, parent,
                        threading.get_ident())
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except failure:
                span.info["failed"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            _describe(name, args, kwargs, result, span.info)
            return result

        return traced

    def install(self):
        import importlib

        from isodag.solvers import ConvergenceError

        for module_name, fn_name, layer in WRAPPED:
            module = importlib.import_module(f"isodag.{module_name}")
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(original, layer, ConvergenceError))

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def call(self, fn, layer: str, *args):
        """Run ``fn(*args)`` inside a span of ``layer`` (used for ``cli.main``)."""
        return self._wrap(fn, layer, ())(*args)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return layer_metrics(self.spans)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of ``span``'s interval covered by the union of ``children``."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one invocation, as ``name -> (value, unit)``."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(names: set[str]) -> float:
        total = 0.0
        for s in spans:
            parent = by_id.get(s.parent)
            if s.name in names and (parent is None or parent.layer != s.layer):
                other = [c for c in children[s.sid] if c.layer != s.layer]
                total += (s.end - s.start) - _covered(s, other)
        return total

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    def busy(items: list[Span]) -> float:
        return sum(s.end - s.start for s in items)

    solves = named("lse_fit")
    times = sorted((s.end - s.start) * 1e3 for s in solves)
    sweeps = sorted(s.info.get("iterations", 0) for s in solves)
    tail_pct = next((p for p in TAIL_LADDER if len(times) * (1 - p / 100) >= 10), 100.0)
    builds = named("build_lattice", "build_design_dag")
    antichains = named("maximum_antichain")
    solve_s = busy(solves)
    m = {
        "solvers.calls": (len(solves), "count"),
        "solvers.solve_s": (solve_s, "s"),
        "solvers.solve_p50_ms": (_percentile(times, 50) if times else 0.0, "ms"),
        "solvers.solve_tail_ms": (_percentile(times, tail_pct) if times else 0.0, "ms"),
        "solvers.solve_tail_pct": (tail_pct, "pct"),
        "solvers.sweeps_total": (sum(sweeps), "count"),
        "solvers.sweeps_p50": (_percentile(sweeps, 50) if sweeps else 0.0, "count"),
        "solvers.sweeps_max": (sweeps[-1] if sweeps else 0, "count"),
        "solvers.us_per_sweep": (solve_s * 1e6 / sum(sweeps) if sum(sweeps) else 0.0, "us"),
        "solvers.failed": (sum(s.info.get("failed", 0) for s in solves), "count"),
        "solvers.violation_max": (max((s.info.get("violation", 0.0) for s in solves),
                                      default=0.0), "abs"),
        "solvers.kkt_gap_rel_max": (max((s.info.get("kkt_gap_rel", 0.0) for s in solves),
                                        default=0.0), "ratio"),
        "orders.build_calls": (len(builds), "count"),
        "orders.build_s": (busy(builds), "s"),
        "orders.vertices": (sum(s.info.get("vertices", 0) for s in builds), "count"),
        "orders.cover_edges": (sum(s.info.get("cover_edges", 0) for s in builds), "count"),
        "orders.antichain_calls": (len(antichains), "count"),
        "orders.antichain_s": (busy(antichains), "s"),
        "orders.antichain_size_mean": (
            sum(s.info.get("size", 0) for s in antichains) / len(antichains)
            if antichains else 0.0, "count"),
        "complexity.statdim_self_s": (self_time({"statdim_mc"}), "s"),
        "complexity.noise_s": (busy(named("noise_stream")), "s"),
        "design.draw_s": (busy(named("draw_design")), "s"),
        "signals.generate_s": (busy(named("generate_signal")), "s"),
        "experiments.self_s": (self_time({"run_fixed_sweep", "table1"}), "s"),
        "experiments.replicates": (sum(s.info.get("replicates", 0) for s in spans), "count"),
        "experiments.emit_s": (busy(named("emit_report")), "s"),
        "experiments.report_bytes": (sum(s.info.get("bytes", 0) for s in spans), "bytes"),
        "cli.self_s": (self_time({"main"}), "s"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
