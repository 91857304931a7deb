"""Span tracing of springswim's public functions, installed from outside the package.

Each target is wrapped and the wrapper is written over every name that
refers to the original in the springswim modules (``from .x import f``
copies), or over the class attribute for methods. A span records its
name, start, end, parent span, run id and whether it raised; spans stay
in memory until ``dump``. Self time is a span's duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute, span name). Methods are written as Class.method.
TARGETS = (
    ("model", "params_for_k_omega", "model.params_for_k_omega"),
    ("analytic", "build_discrete_mode", "analytic.build_discrete_mode"),
    ("analytic", "DiscreteModeShape.node_amplitudes", "analytic.node_amplitudes"),
    ("analytic", "build_continuous_mode", "analytic.build_continuous_mode"),
    ("displacement", "instantaneous_v1", "displacement.instantaneous_v1"),
    ("displacement", "stroke_displacement_discrete", "displacement.stroke_displacement_discrete"),
    ("displacement", "sweep", "displacement.sweep"),
    ("displacement", "optimize_k_omega", "displacement.optimize_k_omega"),
    ("fem", "assemble", "fem.assemble"),
    ("fem", "harmonic_state", "fem.harmonic_state"),
    ("fem", "CrankNicolson.__init__", "fem.CrankNicolson.init"),
    ("fem", "CrankNicolson.step", "fem.CrankNicolson.step"),
    ("fem", "solve_transient", "fem.solve_transient"),
    ("metrics", "convergence_study", "metrics.convergence_study"),
    ("metrics", "error_vs_analytic", "metrics.error_vs_analytic"),
    ("metrics", "fit_rate", "metrics.fit_rate"),
)
STROKE = "displacement.stroke_displacement_discrete"


def _stroke_counts(result) -> dict:
    return {"cells": (result.n + 1) * result.quadrature_points}


def _sweep_counts(table) -> dict:
    return {
        "points": len(table.values),
        "failed_points": sum(failure is not None for failure in table.failures),
    }


COUNTERS = {STROKE: _stroke_counts, "displacement.sweep": _sweep_counts}


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span: (name id, start, end, parent index or -1, run id, error, counts or None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.run_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        alloc = name == STROKE
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end, error, counts = time.perf_counter(), True, None
            raise
        else:
            end, error = time.perf_counter(), False
            counter = COUNTERS.get(name)
            counts = counter(result) if counter else None
        finally:
            self._stack.pop()
            if alloc:
                counts = dict(counts or {}, peak_alloc_bytes=tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            # a finished span is a tuple of atoms, which the cyclic GC stops tracking
            self.spans[index] = (name_id, start, end, parent, self.run_id, error, counts)
        return result

    def absorb(self, spans: dict, run_id: int) -> None:
        """Append spans written by another process (see to_json) under run id run_id."""
        offset = len(self.spans)
        for name, start, end, parent, error, counts in zip(
            spans["name"], spans["start"], spans["end"], spans["parent"], spans["error"], spans["counts"]
        ):
            name_id = self._name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
            self.spans.append((name_id, start, end, parent + offset if parent >= 0 else -1, run_id, error, counts))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        columns = list(zip(*self.spans)) if self.spans else [()] * 7
        keys = ("name", "start", "end", "parent", "run", "error", "counts")
        payload = {key: list(column) for key, column in zip(keys, columns)}
        payload["name"] = [self.names[i] for i in payload["name"]]
        return payload

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in TARGETS for the duration of the block."""
    modules = [m for key, m in sys.modules.items() if key == "springswim" or key.startswith("springswim.")]
    patches = []
    for module_name, attribute, span_name in TARGETS:
        module = sys.modules[f"springswim.{module_name}"]
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            patches.append((owner, name, original))
            setattr(owner, name, tracer.wrap(span_name, original))
            continue
        original = getattr(module, name)
        wrapper = tracer.wrap(span_name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def layer_totals(spans: dict) -> dict[int, dict[str, dict]]:
    """Per run id and span name: calls, errors, self_s and summed counters.

    Also counts the direct children of each name per child name, under
    the key "children".
    """
    names, starts, ends = spans["name"], spans["start"], spans["end"]
    parents, runs, errors, counts = spans["parent"], spans["run"], spans["error"], spans["counts"]
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    totals: dict[int, dict[str, dict]] = defaultdict(dict)
    for index, name in enumerate(names):
        entry = totals[runs[index]].setdefault(
            name, {"calls": 0, "errors": 0, "self_s": 0.0, "children": defaultdict(int)}
        )
        entry["calls"] += 1
        entry["errors"] += int(errors[index])
        entry["self_s"] += durations[index] - covered[index]
        for key, value in (counts[index] or {}).items():
            if key.startswith("peak_"):
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
        parent = parents[index]
        if parent >= 0:
            totals[runs[index]][names[parent]]["children"][name] += 1
    return totals
