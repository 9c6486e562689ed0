"""Spans around the public functions of each symwedge module.

Wrappers are installed at run time where each importing module binds a
function (for example ``symwedge.approx_sym.locate``), so calls the package
makes between its own modules are seen without changing the package. A span
records its name, start, end and parent. Spans stay in memory as flat arrays
and are written out once, when the run ends.

A metric named ``*_self_s`` is the span's self time: its duration minus the
durations of its direct child spans. Every other ``*_s`` metric is the
inclusive duration.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

perf_counter = time.perf_counter

# Per-module metrics in report order: (name, unit, better, source). A source
# is ("calls" | "total" | "self", span name) or ("counter", counter name).
PER_MODULE = (
    ("core.target_calls", "count", "lower", ("calls", "core.target")),
    ("core.target_s", "s", "lower", ("total", "core.target")),
    ("core.permute_calls", "count", "lower", ("calls", "core.permute")),
    ("core.permute_s", "s", "lower", ("total", "core.permute")),
    ("lattice.enumerate_wedge_s", "s", "lower", ("total", "lattice.enumerate_wedge")),
    ("lattice.corner_configuration_calls", "count", "lower", ("calls", "lattice.corner_configuration")),
    ("lattice.corner_configuration_s", "s", "lower", ("total", "lattice.corner_configuration")),
    ("lattice.locate_calls", "count", "lower", ("calls", "lattice.locate")),
    ("lattice.locate_s", "s", "lower", ("total", "lattice.locate")),
    ("lattice.site_weight_support_calls", "count", "lower", ("calls", "lattice.site_weight_support")),
    ("lattice.site_weight_support_s", "s", "lower", ("total", "lattice.site_weight_support")),
    ("approx_sym.build_sym_self_s", "s", "lower", ("self", "approx_sym.build_sym")),
    ("approx_sym.eval_sym_calls", "count", "lower", ("calls", "approx_sym.eval_sym")),
    ("approx_sym.eval_sym_self_s", "s", "lower", ("self", "approx_sym.eval_sym")),
    ("approx_sym.smooth_weights_s", "s", "lower", ("total", "approx_sym.smooth_weights")),
    ("approx_sym.table_entries", "count", "lower", ("counter", "approx_sym.table_entries")),
    ("approx_antisym.choose_direction_calls", "count", "lower", ("calls", "approx_antisym.choose_direction")),
    ("approx_antisym.choose_direction_s", "s", "lower", ("total", "approx_antisym.choose_direction")),
    ("approx_antisym.entry_seed_s", "s", "lower", ("total", "approx_antisym.entry_seed")),
    ("approx_antisym.build_antisym_self_s", "s", "lower", ("self", "approx_antisym.build_antisym")),
    ("approx_antisym.eval_antisym_calls", "count", "lower", ("calls", "approx_antisym.eval_antisym")),
    ("approx_antisym.eval_antisym_self_s", "s", "lower", ("self", "approx_antisym.eval_antisym")),
    ("approx_antisym.dropped_entries", "count", "higher", ("counter", "approx_antisym.dropped_entries")),
    ("harness.sample_s", "s", "lower", ("total", "harness.sample")),
    ("harness.gradient_bound_s", "s", "lower", ("total", "harness.gradient_bound")),
    ("harness.target_invariance_s", "s", "lower", ("total", "harness.target_invariance")),
    ("harness.build_s", "s", "lower", ("total", "harness.build")),
    ("harness.sup_error_s", "s", "lower", ("total", "harness.sup_error")),
    ("harness.invariance_s", "s", "lower", ("total", "harness.invariance")),
    ("harness.cauchy_s", "s", "lower", ("total", "harness.cauchy")),
    ("persistence.save_s", "s", "lower", ("total", "persistence.save")),
    ("persistence.load_s", "s", "lower", ("total", "persistence.load")),
    ("persistence.model_bytes", "B", "lower", ("counter", "persistence.model_bytes")),
    ("cli.self_s", "s", "lower", ("self", "cli.main")),
)


class Tracer:
    """In-memory span recorder with per-name call, total and self-time sums."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, int] = {}

    def intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return sid

    def begin(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(idx)
        self._child_time.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def end(self, idx: int, sid: int) -> None:
        t = perf_counter()
        self.span_end[idx] = t
        duration = t - self.span_start[idx]
        self._open.pop()
        children = self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration
        self.calls[sid] += 1
        self.total[sid] += duration
        self.self_time[sid] += duration - children

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        sid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx, sid)
            if after is not None:
                after(self, result, *args)
            return result

        return traced

    def reset_sums(self) -> None:
        """Zero the per-name sums and counters; recorded spans are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counters = {}

    def per_module(self) -> dict[str, float]:
        """The PER_MODULE metrics from the sums since the last reset."""
        out = {}
        for metric, _unit, _better, (kind, key) in PER_MODULE:
            if kind == "counter":
                out[metric] = self.counters.get(key, 0)
                continue
            sid = self._ids.get(key)
            if sid is None:
                out[metric] = 0 if kind == "calls" else 0.0
            elif kind == "calls":
                out[metric] = self.calls[sid]
            elif kind == "total":
                out[metric] = self.total[sid]
            else:
                out[metric] = self.self_time[sid]
        return out

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _count_tabulator(tracer: Tracer, tab, *_args) -> None:
    from symwedge import AntisymTabulator

    if isinstance(tab, AntisymTabulator):
        tracer.count("approx_antisym.dropped_entries", tab.stats.wedge_count - len(tab.table))
    else:
        tracer.count("approx_sym.table_entries", len(tab.table))


def _count_saved(tracer: Tracer, _result, path, *_args) -> None:
    tracer.count("persistence.model_bytes", os.path.getsize(path))


def _count_loaded(tracer: Tracer, tab, path, *_args) -> None:
    tracer.count("persistence.model_bytes", os.path.getsize(path))
    _count_tabulator(tracer, tab)


def _span(name: str, after: Callable | None = None):
    return lambda tracer, fn: tracer.wrap(name, fn, after)


def _harness_build(name: str):
    # The harness phase and the builder it calls are two nested spans.
    return lambda tracer, fn: tracer.wrap(
        "harness.build", tracer.wrap(name, fn, _count_tabulator)
    )


def _enumerate_wedge(tracer: Tracer, fn: Callable) -> Callable:
    # enumerate_wedge returns a lazy iterator; it is drained inside the span
    # so the span holds the enumeration. Callers only iterate the result.
    return tracer.wrap("lattice.enumerate_wedge", lambda *a, **k: list(fn(*a, **k)))


def _target_factory(tracer: Tracer, fn: Callable) -> Callable:
    # Targets are built by the CLI from config files; the returned target
    # gets a traced evaluator, so every target call is one span.
    @functools.wraps(fn)
    def traced_factory(*args, **kwargs):
        target = fn(*args, **kwargs)
        return dataclasses.replace(
            target, evaluator=tracer.wrap("core.target", target.evaluator)
        )

    return traced_factory


def _invariance_suite(tracer: Tracer, fn: Callable) -> Callable:
    # The same harness function checks the target and the approximation;
    # the evaluator's type tells the two phases apart.
    from symwedge.core import TargetFunction

    on_target = tracer.intern("harness.target_invariance")
    on_approx = tracer.intern("harness.invariance")

    @functools.wraps(fn)
    def traced(evaluator, *args, **kwargs):
        sid = on_target if isinstance(evaluator, TargetFunction) else on_approx
        idx = tracer.begin(sid)
        try:
            return fn(evaluator, *args, **kwargs)
        finally:
            tracer.end(idx, sid)

    return traced


# (importing module, attribute, wrapper factory). A function bound in
# several modules gets one wrapper per binding, all with one span name.
BINDINGS = (
    ("symwedge.cli", "main", _span("cli.main")),
    ("symwedge.cli", "builtin_target", _target_factory),
    ("symwedge.cli", "build_sym", _span("approx_sym.build_sym", _count_tabulator)),
    ("symwedge.cli", "build_antisym", _span("approx_antisym.build_antisym", _count_tabulator)),
    ("symwedge.cli", "eval_sym", _span("approx_sym.eval_sym")),
    ("symwedge.cli", "eval_antisym", _span("approx_antisym.eval_antisym")),
    ("symwedge.cli", "save_model", _span("persistence.save", _count_saved)),
    ("symwedge.cli", "load_model", _span("persistence.load", _count_loaded)),
    ("symwedge.cli", "sample_configurations", _span("harness.sample")),
    ("symwedge.cli", "gradient_bound_estimate", _span("harness.gradient_bound")),
    ("symwedge", "eval_sym", _span("approx_sym.eval_sym")),
    ("symwedge", "eval_antisym", _span("approx_antisym.eval_antisym")),
    ("symwedge.harness", "sample_configurations", _span("harness.sample")),
    ("symwedge.harness", "gradient_bound_estimate", _span("harness.gradient_bound")),
    ("symwedge.harness", "invariance_suite", _invariance_suite),
    ("symwedge.harness", "build_sym", _harness_build("approx_sym.build_sym")),
    ("symwedge.harness", "build_antisym", _harness_build("approx_antisym.build_antisym")),
    ("symwedge.harness", "sup_error", _span("harness.sup_error")),
    ("symwedge.harness", "cauchy_factor_check", _span("harness.cauchy")),
    ("symwedge.harness", "eval_sym", _span("approx_sym.eval_sym")),
    ("symwedge.harness", "eval_antisym", _span("approx_antisym.eval_antisym")),
    ("symwedge.harness", "permute", _span("core.permute")),
    ("symwedge.approx_sym", "enumerate_wedge", _enumerate_wedge),
    ("symwedge.approx_sym", "corner_configuration", _span("lattice.corner_configuration")),
    ("symwedge.approx_sym", "locate", _span("lattice.locate")),
    ("symwedge.approx_sym", "site_weight_support", _span("lattice.site_weight_support")),
    ("symwedge.approx_sym", "smooth_weights", _span("approx_sym.smooth_weights")),
    ("symwedge.approx_antisym", "enumerate_wedge", _enumerate_wedge),
    ("symwedge.approx_antisym", "locate", _span("lattice.locate")),
    ("symwedge.approx_antisym", "site_weight_support", _span("lattice.site_weight_support")),
    ("symwedge.approx_antisym", "choose_direction", _span("approx_antisym.choose_direction")),
    ("symwedge.approx_antisym", "entry_seed", _span("approx_antisym.entry_seed")),
)


@contextmanager
def installed(tracer: Tracer):
    """Install every binding's wrapper for the duration of the block."""
    originals = []
    try:
        for module_name, attribute, factory in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            originals.append((module, attribute, original))
            setattr(module, attribute, factory(tracer, original))
        yield tracer
    finally:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)
