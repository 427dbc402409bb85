"""Per-layer tracing for the benchmark's traced run.

:func:`traced` wraps each layer's public entry points where their callers
look them up, records what they do in memory, and restores the originals
on exit.  Coarse calls get a span (name, start, end, parent span); calls
made hundreds of thousands of times per run (``MissCurve.__call__``,
``SharedOccupancyModel.step``) only bump a counter, because a span each
would cost more than the work it measures.

Nothing here is imported by the program: the timed runs execute the
program untouched, and only the separate traced run installs these
wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Per-layer metric names and units, in the order the traced run prints
#: them.  BENCHMARK.json's ``per_layer`` list carries the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.shared_lru_s": "s",
    "sim.shared_lru_cells": "count",
    "cache.occupancy_steps": "count",
    "monitor.curve_evals": "count",
    "core.ubik_s": "s",
    "core.ubik_callbacks": "count",
    "core.boost_eval_s": "s",
    "core.boost_evals": "count",
    "policies.lookahead_s": "s",
    "policies.lookahead_calls": "count",
    "policies.interval_s": "s",
    "sim.group_s": "s",
    "sim.group_self_s": "s",
    "sim.groups": "count",
    "sim.group_cells_mean": "cells",
    "sim.group_p50_ms": "ms",
    "sim.group_tail_ms": "ms",
    "sim.baseline_s": "s",
    "sim.baselines": "count",
    "workloads.stream_s": "s",
    "workloads.streams": "count",
    "runtime.execute_s": "s",
    "runtime.cells": "count",
    "runtime.store_put_s": "s",
    "runtime.store_puts": "count",
    "runtime.store_get_s": "s",
    "runtime.store_gets": "count",
    "runtime.artifact_hits": "count",
    "runtime.artifact_misses": "count",
    "runtime.artifact_hit_ratio": "ratio",
    "experiments.assemble_s": "s",
    "experiments.paper_mae_pt": "pt",
    "trace.overhead_s": "s",
}

#: Percentiles tried for ``sim.group_tail_ms``, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tracer:
    """In-memory span and counter recorder.

    A span is ``(id, parent_id, name, start, end, child_seconds)``;
    ``child_seconds`` is the time covered by its direct child spans, so
    self time is ``end - start - child_seconds``.  ``totals`` holds each
    name's inclusive time, counting a span only when no enclosing span
    has the same name (so a layer calling itself is not counted twice).
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self.calls: Counter = Counter()
        self.totals: Dict[str, float] = {}
        self.self_totals: Dict[str, float] = {}
        self.group_cells: List[int] = []
        self.cells_executed = 0
        self._stack: List[List[Any]] = []  # [span_id, name, child_seconds]
        self._open: Counter = Counter()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][2] += duration
            self.calls[name] += 1
            if not self._open[name]:
                self.totals[name] = self.totals.get(name, 0.0) + duration
            self.self_totals[name] = (
                self.self_totals.get(name, 0.0) + duration - frame[2]
            )
            self.spans.append((span_id, parent, name, start, end, frame[2]))

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]


def _span_method(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)

    return wrapper


def _count_method(tracer: Tracer, name: str, fn: Callable) -> Callable:
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Optional[Any]]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # Class attributes are read from the class's own dict so an
        # inherited method is restored by deleting the override.
        own = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        self.set(cls, attr, wrap(getattr(cls, attr)))

    def function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every ``repro`` module that imported it."""
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None and isinstance(owner, type):
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    from repro.cache.sharing import SharedOccupancyModel
    from repro.core import boost
    from repro.core.ubik import UbikPolicy
    from repro.monitor.miss_curve import MissCurve
    from repro.policies import lookahead
    from repro.policies.onoff import OnOffPolicy
    from repro.policies.static_lc import StaticLCPolicy
    from repro.policies.ucp import UCPPolicy
    from repro.runtime import work
    from repro.runtime.store import ResultStore
    from repro.sim.engine import MixEngine
    from repro.sim.mix_runner import MixRunner

    patches = _Patches()
    try:
        # sim: the shared-LRU fluid path is MixEngine.run under a policy
        # that does not partition; partitioned runs pass through untimed.
        def engine_run(fn):
            @functools.wraps(fn)
            def wrapper(self):
                if self.policy.uses_partitioning:
                    return fn(self)
                return tracer.span("sim.shared_lru", fn, self)

            return wrapper

        patches.method(MixEngine, "run", engine_run)

        def run_mix_group(fn):
            @functools.wraps(fn)
            def wrapper(self, spec, cells, *args, **kwargs):
                tracer.group_cells.append(len(cells))
                return tracer.span("sim.group", fn, self, spec, cells, *args, **kwargs)

            return wrapper

        patches.method(MixRunner, "run_mix_group", run_mix_group)
        patches.method(
            MixRunner, "baseline", lambda fn: _span_method(tracer, "sim.baseline", fn)
        )
        patches.method(
            MixRunner, "stream", lambda fn: _span_method(tracer, "workloads.stream", fn)
        )

        # cache / monitor: hot calls, counted only.
        patches.method(
            SharedOccupancyModel,
            "step",
            lambda fn: _count_method(tracer, "cache.occupancy_step", fn),
        )
        patches.method(
            MissCurve, "__call__", lambda fn: _count_method(tracer, "monitor.curve_eval", fn)
        )

        # core: Ubik's callbacks and its boost sizing.
        for attr in ("initialize", "on_interval", "on_lc_idle", "on_lc_active"):
            patches.method(
                UbikPolicy, attr, lambda fn: _span_method(tracer, "core.ubik", fn)
            )
        patches.function(
            boost.evaluate_options,
            _span_method(tracer, "core.boost_eval", boost.evaluate_options),
        )

        # policies: UCP lookahead (shared by UCP, OnOff, StaticLC and
        # Ubik's repartition table) and the baselines' interval work.
        patches.function(
            lookahead.lookahead_partition,
            _span_method(tracer, "policies.lookahead", lookahead.lookahead_partition),
        )
        for cls in (UCPPolicy, OnOffPolicy, StaticLCPolicy):
            for attr in ("initialize", "on_interval"):
                patches.method(
                    cls, attr, lambda fn: _span_method(tracer, "policies.interval", fn)
                )

        # runtime: batch execution, store I/O.
        def execute_specs(fn):
            @functools.wraps(fn)
            def wrapper(specs, *args, **kwargs):
                specs = list(specs)
                tracer.cells_executed += len(specs)
                return tracer.span("runtime.execute", fn, specs, *args, **kwargs)

            return wrapper

        patches.function(work.execute_specs, execute_specs(work.execute_specs))
        patches.method(
            ResultStore, "put_record", lambda fn: _span_method(tracer, "runtime.store_put", fn)
        )
        patches.method(
            ResultStore, "get_record", lambda fn: _span_method(tracer, "runtime.store_get", fn)
        )
        yield tracer
    finally:
        patches.undo()


def _percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def group_tail(durations: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    groups beyond it, falling back to the median for tiny runs."""
    for pct in _TAIL_PERCENTILES:
        if len(durations) * (1.0 - pct / 100.0) >= 10:
            return pct, _percentile(durations, pct)
    return 50.0, _percentile(durations, 50.0)


def per_layer_metrics(
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    artifact_stats: Dict[str, Any],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """(metric values, notes) from one traced regeneration."""
    total = tracer.totals.get
    calls = tracer.calls
    groups = tracer.durations("sim.group")
    hits = sum(k["hits"] for k in artifact_stats["kinds"].values())
    misses = sum(k["misses"] for k in artifact_stats["kinds"].values())
    tail_pct, tail = group_tail(groups) if groups else (50.0, 0.0)
    values = {
        "sim.shared_lru_s": total("sim.shared_lru", 0.0),
        "sim.shared_lru_cells": calls["sim.shared_lru"],
        "cache.occupancy_steps": calls["cache.occupancy_step"],
        "monitor.curve_evals": calls["monitor.curve_eval"],
        "core.ubik_s": total("core.ubik", 0.0),
        "core.ubik_callbacks": calls["core.ubik"],
        "core.boost_eval_s": total("core.boost_eval", 0.0),
        "core.boost_evals": calls["core.boost_eval"],
        "policies.lookahead_s": total("policies.lookahead", 0.0),
        "policies.lookahead_calls": calls["policies.lookahead"],
        "policies.interval_s": total("policies.interval", 0.0),
        "sim.group_s": total("sim.group", 0.0),
        "sim.group_self_s": tracer.self_totals.get("sim.group", 0.0),
        "sim.groups": len(groups),
        "sim.group_cells_mean": (
            sum(tracer.group_cells) / len(tracer.group_cells) if tracer.group_cells else 0.0
        ),
        "sim.group_p50_ms": _percentile(groups, 50.0) * 1e3 if groups else 0.0,
        "sim.group_tail_ms": tail * 1e3,
        "sim.baseline_s": total("sim.baseline", 0.0),
        "sim.baselines": calls["sim.baseline"],
        "workloads.stream_s": total("workloads.stream", 0.0),
        "workloads.streams": calls["workloads.stream"],
        "runtime.execute_s": total("runtime.execute", 0.0),
        "runtime.cells": tracer.cells_executed,
        "runtime.store_put_s": total("runtime.store_put", 0.0),
        "runtime.store_puts": calls["runtime.store_put"],
        "runtime.store_get_s": total("runtime.store_get", 0.0),
        "runtime.store_gets": calls["runtime.store_get"],
        "runtime.artifact_hits": hits,
        "runtime.artifact_misses": misses,
        "runtime.artifact_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "experiments.assemble_s": traced_wall - total("runtime.execute", 0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    notes = {
        "sim.group_tail_ms": f"p{tail_pct:g} of {len(groups)} groups",
        "self_s": {
            name: round(seconds, 4)
            for name, seconds in sorted(
                tracer.self_totals.items(), key=lambda item: -item[1]
            )
        },
    }
    return values, notes
