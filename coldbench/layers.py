"""Per-layer self-time tracing, installed from outside the program.

The traced child process wraps the public entry point(s) of every layer
listed in :data:`LAYERS`.  Each wrapper is a span: its *self time* is
its duration minus the time covered by nested spans of any layer, so
the self times of one process never overlap and, together with what no
layer covers, add up to the process's wall time.

Where one layer has two implementations (the scalar and the columnar
physics, say), both entry points are wrapped under the one layer name,
so the layer keeps its meaning when either twin goes away.

Pool workers are forked from the traced process and inherit the
wrappers.  The worker initializer resets the inherited totals, and each
worker rewrites ``worker-<pid>.json`` in the trace directory after its
initializer and after every chunk; :func:`merge_workers` sums them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable

#: layer -> (module, attribute path) of every entry point it times.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "engine.simulate": (
        ("repro.engine.batch", "BatchSimulator.record"),
        ("repro.engine.batch", "BatchSimulator.run_grid"),
        ("repro.engine.simulator", "GPUSimulator.run"),
        ("repro.engine.simulator", "GPUSimulator.run_grid"),
    ),
    "instruments.measure": (
        ("repro.instruments.batch", "BatchMeasurer.measure"),
        ("repro.instruments.testbed", "Testbed.measure"),
        ("repro.instruments.testbed", "Testbed.measure_grid"),
    ),
    "instruments.profile": (
        ("repro.instruments.batch", "BatchMeasurer.counter_totals"),
        ("repro.instruments.profiler", "CudaProfiler.profile"),
    ),
    "execution.prepare": (
        ("repro.execution.batch", "prepare_units"),
        ("repro.engine.batch", "BatchSimulator.prepare"),
    ),
    "core.selection": (("repro.core.selection", "forward_select"),),
    "core.regression": (("repro.core.regression", "fit_ols"),),
    "execution.cache.put": (("repro.execution.cache", "ResultCache.put"),),
    "execution.journal.append": (
        ("repro.execution.journal", "RunJournal.record_unit"),
    ),
    # The parent blocked on pool results.  Its call count follows the
    # 0.25 s poll loop, so it is a time only, never a count.
    "execution.pool.wait": (("repro.execution.pool", "wait"),),
    "telemetry.bus": (
        ("repro.telemetry.bus", "EventBus.publish"),
        ("repro.telemetry.bus", "EventBus.emit"),
    ),
    "fleet.model": (
        ("repro.fleet.model", "template_prediction_table"),
        ("repro.fleet.model", "nominal_table"),
    ),
    "fleet.placement": (("repro.fleet.placement", "place_all"),),
    "fleet.units": (("repro.fleet.units", "FleetShardUnit.execute"),),
    "engine.run_units": (("repro.execution.engine", "run_units"),),
}

#: Layers whose call count depends on timing, not on the work done.
UNCOUNTED = frozenset({"execution.pool.wait"})

#: Layers that run inside pool workers (reported as ``worker.<layer>``).
WORKER_LAYERS = (
    "engine.simulate",
    "instruments.measure",
    "instruments.profile",
    "execution.prepare",
    "execution.cache.put",
)

#: Environment variables of the traced child: the trace directory, and
#: the layer that receives a synthetic slowdown (benchmark self-tests).
TRACE_DIR_ENV = "COLDBENCH_TRACE_DIR"
SLOW_LAYER_ENV = "COLDBENCH_SLOW_LAYER"
SLOW_FACTOR = 1.5


class Tracer:
    """Self time and call count per layer, for one process."""

    def __init__(self, slow_layer: str | None = None) -> None:
        if slow_layer is not None and slow_layer not in LAYERS:
            raise ValueError(f"unknown layer {slow_layer!r}")
        self.slow_layer = slow_layer
        self.reset()

    def reset(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        slow = layer == self.slow_layer

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)  # time covered by nested spans
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if slow:
                    # Busy-wait so this span's self time grows by half.
                    until = time.perf_counter() + (SLOW_FACTOR - 1) * (
                        elapsed - nested
                    )
                    while time.perf_counter() < until:
                        pass
                    elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - nested
                self.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        span.__coldbench_original__ = fn  # type: ignore[attr-defined]
        return span

    def snapshot(self) -> dict[str, Any]:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls)}


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point, and every module-level alias of it."""
    for layer, entries in LAYERS.items():
        for module_name, path in entries:
            owner, name = _resolve(module_name, path)
            original = owner.__dict__[name]
            wrapped = tracer.wrap(layer, original)
            setattr(owner, name, wrapped)
            if isinstance(owner, type) or original.__module__ != module_name:
                # Methods need no alias scan; foreign functions (the
                # pool's ``wait``) are timed only where the entry names.
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("repro") and module is not None:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
    _hook_pool_workers(tracer)


def _hook_pool_workers(tracer: Tracer) -> None:
    pool = importlib.import_module("repro.execution.pool")
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    init, run_chunk = pool._worker_init, pool._run_chunk

    def dump() -> None:
        if trace_dir is None:
            return
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
        os.replace(path + ".tmp", path)

    @functools.wraps(init)
    def worker_init(*args: Any, **kwargs: Any) -> None:
        tracer.reset()  # drop the totals inherited from the parent
        init(*args, **kwargs)
        dump()

    @functools.wraps(run_chunk)
    def worker_run_chunk(*args: Any, **kwargs: Any) -> Any:
        try:
            return run_chunk(*args, **kwargs)
        finally:
            dump()

    pool._worker_init = worker_init
    pool._run_chunk = worker_run_chunk


def merge_workers(trace_dir: str) -> dict[str, Any]:
    """Sum the ``worker-*.json`` snapshots of one traced run."""
    total: dict[str, Any] = {
        "self_s": {layer: 0.0 for layer in LAYERS},
        "calls": {layer: 0 for layer in LAYERS},
    }
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
                snap = json.load(handle)
            for layer in LAYERS:
                total["self_s"][layer] += snap["self_s"][layer]
                total["calls"][layer] += snap["calls"][layer]
    return total
