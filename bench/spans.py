"""Spans around capclust's public functions, recorded from the benchmark's side.

``Tracer.install`` wraps every public function defined in each layer module
(plus ``FlowNetwork.solve``) and rebinds the wrapper at every place the
original is bound: the defining module, each ``from .x import y`` binding
in the other capclust modules, and the package namespace.  Each call
records a span (name, start, end, parent) in memory; a few wrappers also
add counts read from the return value.  No program file changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("solver", "allocation", "mincostflow", "location", "metrics", "model",
          "selection", "io", "plotting", "cli")
METHODS = {"mincostflow": ("FlowNetwork.solve",)}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


def _path_arg(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
    except TypeError:
        return None


def _count_result(name: str, fn):
    """Return a hook(counters, args, kwargs, result) for spans that carry counts, or None."""
    layer, _, func = name.partition(".")
    if name == "solver.descend":
        def hook(c, args, kwargs, result):
            c["solver.iterations"] += result.diagnostics.get("iterations", 0)
            c["solver.empty_reseeds"] += result.diagnostics.get("empty_reseeds", 0)
        return hook
    if name == "allocation.allocate":
        def hook(c, args, kwargs, result):
            if "nodes" in result.diagnostics:  # only hard capacitated calls report nodes
                c["allocation.hard_calls"] += 1
                c["allocation.bnb_nodes"] += result.diagnostics["nodes"]
                c["allocation.lp_integral"] += result.diagnostics.get("fastpath") == "lp_integral"
        return hook
    if name == "location.weiszfeld":
        def hook(c, args, kwargs, result):
            c["location.weiszfeld.iterations"] += result.iterations
            c["location.weiszfeld.unconverged"] += not result.converged
        return hook
    if name == "metrics.distances_to_centers":
        def hook(c, args, kwargs, result):
            c["metrics.distances_to_centers.cells"] += result.size
        return hook
    if name == "selection.sweep_k":
        def hook(c, args, kwargs, result):
            c["selection.k_values"] += len(result.k_values)
        return hook
    if layer in ("io", "plotting") and "path" in inspect.signature(fn).parameters:
        key = "io.bytes_read" if func.startswith(("load_", "read_")) else "io.bytes_written"

        def hook(c, args, kwargs, result):
            path = _path_arg(fn, args, kwargs)
            if path is not None and os.path.exists(path):
                c[key] += os.path.getsize(path)
        return hook
    return None


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.wrapped: dict[str, object] = {}  # span name -> original function
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _count_result(name, fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        self.wrapped[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        wrappers: dict = {}  # original function -> its wrapper
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"capclust.{layer}")
            except ModuleNotFoundError:
                continue  # a layer the program no longer has: its metrics read 0
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in vars(cls):
                    original = vars(cls)[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{dotted}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "capclust" and not mod_name.startswith("capclust."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def unpatched(self) -> list[str]:
        """Bindings in capclust modules that still point at an unwrapped original."""
        originals = {fn: name for name, fn in self.wrapped.items()}
        missed = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "capclust" or mod_name.startswith("capclust."):
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in originals:
                        missed.append(f"{mod_name}.{attr} -> {originals[obj]}")
        return missed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            calls[span.name] += 1
            incl[span.name] += span.end - span.start
            self_s[span.name] += span.end - span.start - child[i]
        return calls, incl, self_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command (all but trace.overhead_ratio)."""
    calls, incl, self_s = tracer.totals()
    c = tracer.counters
    out = {
        "solver.restarts": calls["solver.kmeanspp_init"],
        "solver.iterations": c["solver.iterations"],
        "solver.empty_reseeds": c["solver.empty_reseeds"],
        "solver.kmeanspp_init.self_s": self_s["solver.kmeanspp_init"],
        "solver.descend.self_s": self_s["solver.descend"],
        "allocation.allocate.calls": calls["allocation.allocate"],
        "allocation.allocate.self_s": self_s["allocation.allocate"],
        "allocation.bnb_nodes": c["allocation.bnb_nodes"],
        "allocation.lp_solves_per_call": _ratio(calls["mincostflow.FlowNetwork.solve"], calls["allocation.allocate"]),
        "allocation.lp_integral_ratio": _ratio(c["allocation.lp_integral"], c["allocation.hard_calls"]),
        "mincostflow.FlowNetwork.solve.calls": calls["mincostflow.FlowNetwork.solve"],
        "mincostflow.FlowNetwork.solve.self_s": self_s["mincostflow.FlowNetwork.solve"],
    }
    for name in ("location.update_center_continuous", "location.weiszfeld", "location.update_center_discrete",
                 "location.decide_release", "metrics.distances_to_centers", "metrics.geometric_distances",
                 "model.evaluate_parts", "model.validate_problem"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update({
        "location.weiszfeld.iterations": c["location.weiszfeld.iterations"],
        "location.weiszfeld.unconverged": c["location.weiszfeld.unconverged"],
        "metrics.distances_to_centers.cells": c["metrics.distances_to_centers.cells"],
        "metrics.matrices_per_iteration": _ratio(calls["metrics.distances_to_centers"], c["solver.iterations"]),
        "metrics.pairwise_costs.calls": calls["metrics.pairwise_costs"],
        "metrics.candidate_distances.calls": calls["metrics.candidate_distances"],
        "selection.sweep_k.self_s": self_s["selection.sweep_k"],
        "selection.k_values": c["selection.k_values"],
        "io.load_points.s": incl["io.load_points"],
        "io.load_matrix.s": incl["io.load_matrix"],
        "io.write_solution.s": incl["io.write_solution"],
        "io.bytes_read": c["io.bytes_read"],
        "io.bytes_written": c["io.bytes_written"],
        "plotting.render_plot.s": incl["plotting.render_plot"],
        "cli.main.self_s": self_s["cli.main"],
        # Time inside the command in which no layer below the entry point was
        # active: the CLI's own code plus any call the wrappers missed.
        "trace.unattributed_ratio": _ratio(self_s["cli.main"], wall_s),
    })
    layers: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        layers[name.split(".")[0]] += value
    out["_layer_self_share"] = {layer: _ratio(v, wall_s) for layer, v in sorted(layers.items())}
    out["_fired"] = sorted(calls)
    return out
