"""Fast (batch-path) evaluation of campaign work units.

The scalar path executes each unit under a worker-local telemetry
context, recording spans and counters.  When the batch is running
*without* telemetry — every timed bench invocation, every plain
``sweep.run`` / ``dataset.build`` call — that bookkeeping is pure
overhead, and the unit's payload is a deterministic function of
(unit spec, seed).  This module computes exactly that payload through
the columnar batch layer: vectorized stream seeding and per-cell
memoization via :func:`~repro.instruments.batch.shared_batch_measurer`.

Scope and safety:

* only fault-free :class:`SweepUnit` / :class:`DatasetUnit` instances
  are batchable (:func:`is_batchable`) — fault plans are per-attempt
  and stateful, so they keep the scalar retry loop;
* payload parity with ``unit.execute()`` is byte-exact
  (tests/test_batch_parity.py asserts it over random grids);
* any exception from the fast path (invalid pair, profile too short,
  ...) is the caller's signal to fall back to the scalar path, which
  reproduces the error with the exact scalar semantics.
"""

from __future__ import annotations

from typing import Any

from repro.execution.units import (
    DatasetUnit,
    SweepUnit,
    WorkUnit,
    measurement_to_payload,
)
from repro.fleet.units import FleetShardUnit
from repro.instruments.batch import BatchMeasurer, shared_batch_measurer

#: The profiler-failure reason string (mirrors CudaProfiler.profile).
_PROFILER_REASON = (
    "CUDA Profiler failed to analyze {name!r} "
    "(as reported in the paper, Section IV-A)"
)


def is_batchable(unit: WorkUnit) -> bool:
    """Whether the unit can take the fast batch path."""
    if isinstance(unit, FleetShardUnit):
        # A fleet shard's execute() is already a pure columnar
        # computation (one BatchSimulator.tables pass per device, no
        # telemetry or instrument state), so the fast path runs it.
        return unit.faults is None
    return isinstance(unit, (SweepUnit, DatasetUnit)) and unit.faults is None


def prepare_units(units: "list[WorkUnit]") -> None:
    """Evaluate a list of batchable units' grids and seed their streams.

    Each card's cells go through one columnar physics pass, and every
    meter, host and profiler stream is vector-seeded.  Best-effort:
    units whose cells cannot be enumerated (e.g. an invalid frequency
    pair) are skipped here and surface their error when evaluated.
    """
    measure_cells: dict[int, tuple[BatchMeasurer, list]] = {}
    profile_cells: dict[tuple[int, int | None], tuple[BatchMeasurer, list]] = {}
    for unit in units:
        if not is_batchable(unit):
            continue
        measurer = shared_batch_measurer(unit.gpu, unit.seed)
        try:
            if isinstance(unit, SweepUnit):
                cells = [
                    (unit.kernel, unit.scale, unit.gpu.operating_point(unit.pair))
                ]
            else:
                if not unit.kernel.profiler_ok:
                    continue
                key = (id(measurer), unit.profiler_seed)
                entry = profile_cells.get(key)
                if entry is None:
                    entry = profile_cells[key] = (measurer, [])
                entry[1].append((unit.kernel, unit.scale))
                cells = [
                    (unit.kernel, unit.scale, op)
                    for op in unit._operating_points()
                ]
                cells.append(
                    (unit.kernel, unit.scale, unit.gpu.operating_point("H-H"))
                )
        except Exception:
            continue
        entry = measure_cells.get(id(measurer))
        if entry is None:
            entry = measure_cells[id(measurer)] = (measurer, [])
        entry[1].extend(cells)
    for measurer, cells in measure_cells.values():
        measurer.prepare(cells)
    for (_, profiler_seed), (measurer, cells) in profile_cells.items():
        measurer.prepare_profiles(cells, profiler_seed=profiler_seed)


def evaluate_fast(unit: WorkUnit) -> dict[str, Any]:
    """Compute a batchable unit's payload through the batch layer.

    Byte-identical to ``unit.execute()`` for fault-free units.  Raises
    whatever the batch layer raises; callers fall back to the scalar
    path on any exception.
    """
    if isinstance(unit, SweepUnit):
        return _evaluate_sweep(unit)
    if isinstance(unit, DatasetUnit):
        return _evaluate_dataset(unit)
    if isinstance(unit, FleetShardUnit):
        return unit.execute()
    raise TypeError(f"unit kind {unit.kind!r} has no batch path")


def _evaluate_sweep(unit: SweepUnit) -> dict[str, Any]:
    measurer = shared_batch_measurer(unit.gpu, unit.seed)
    op = unit.gpu.operating_point(unit.pair)
    measurement = measurer.measure(unit.kernel, unit.scale, op)
    payload = measurement_to_payload(measurement)
    payload["kind"] = unit.kind
    return payload


def _evaluate_dataset(unit: DatasetUnit) -> dict[str, Any]:
    if not unit.kernel.profiler_ok:
        return {
            "kind": unit.kind,
            "gpu": unit.gpu.name,
            "benchmark": unit.kernel.name,
            "scale": float(unit.scale),
            "profiled": False,
            "reason": _PROFILER_REASON.format(name=unit.kernel.name),
            "counters": {},
            "measurements": [],
        }
    measurer = shared_batch_measurer(unit.gpu, unit.seed)
    totals = measurer.counter_totals(
        unit.kernel,
        unit.scale,
        unit.gpu.operating_point("H-H"),
        profiler_seed=unit.profiler_seed,
        noise_scale=unit.noise_scale,
        bias_cv=unit.bias_cv,
    )
    measurements = []
    for op in unit._operating_points():
        m = measurer.measure(unit.kernel, unit.scale, op)
        measurements.append(
            {
                "pair": op.key,
                "exec_seconds": float(m.exec_seconds),
                "avg_power_w": float(m.avg_power_w),
                "energy_j": float(m.energy_j),
                "degraded": bool(m.degraded),
            }
        )
    return {
        "kind": unit.kind,
        "gpu": unit.gpu.name,
        "benchmark": unit.kernel.name,
        "scale": float(unit.scale),
        "profiled": True,
        "counters": {name: float(v) for name, v in totals.items()},
        "measurements": measurements,
    }
