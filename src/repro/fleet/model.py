"""Per-device model handles: template predictions scaled by nominal physics.

Training an Eq. 1 / Eq. 2 model pair per device would cost a full
114-sample campaign per device — 10^3 devices would dwarf the placement
study.  Fleets instead get *derived* model handles:

* the four template models are trained once (memoized per process via
  :mod:`repro.experiments.context`) on the canonical cards, and
* each device's prediction is the template's prediction scaled by the
  ratio of *nominal* quantities — the deterministic physics of the
  device's spec sheet (clocks, voltages, power coefficients) with every
  noise stream removed.  The nominal cells come out of the same
  columnar pass as the true ones (:meth:`BatchSimulator.tables`).

A device's nominal tables are legitimately knowable without measuring
it; the device-specific noise fixed-effects are not, remain invisible
to the model handle, and are exactly what separates model-driven
placement from the oracle.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.arch.specs import GPUSpec
from repro.engine.batch import BatchSimulator
from repro.kernels.suites import get_benchmark


def nominal_table(
    spec: GPUSpec, workloads: Sequence[str], scale: float
) -> dict[str, Any]:
    """Nominal ``seconds``/``energy_j`` grids of one device.

    The nominal half of :meth:`BatchSimulator.tables`: the simulator's
    physics with every noise factor removed, deterministic in the spec
    alone, so workers and the parent agree bit-for-bit.  Rows follow
    ``workloads`` order, columns the device's Table III (highest-first)
    pair order — the axis convention every fleet table shares.
    """
    tables = BatchSimulator(spec).tables(
        [get_benchmark(name) for name in workloads], scale
    )
    return {
        "pairs": tables["pairs"],
        "seconds": tables["nominal_seconds"],
        "energy_j": tables["nominal_energy_j"],
    }


def template_prediction_table(
    templates: Sequence[str],
    workloads: Sequence[str],
    scale: float,
    seed: int | None = None,
) -> dict[str, dict[str, Any]]:
    """Per-template Eq. 1 / Eq. 2 predictions at every configurable pair.

    Trains (or reuses, via the experiment suite's memo) each template's
    unified models on its 114-sample dataset and tabulates predicted
    seconds/power/energy per (workload, pair), plus the template's own
    nominal table — the denominator of the device scaling ratio.
    """
    # Imported here: experiments.context pulls the whole modeling stack,
    # which worker-side fleet units never need.
    from repro.experiments import context as expctx
    from repro.optimize.governor import ModelGovernor

    table: dict[str, dict[str, Any]] = {}
    for name in templates:
        dataset = expctx.dataset(name, seed)
        governor = ModelGovernor(
            expctx.power_model(name, seed),
            expctx.performance_model(name, seed),
        )
        spec = dataset.gpu
        nominal = nominal_table(spec, workloads, scale)
        classes: dict[str, Any] = {}
        for workload in workloads:
            ops, seconds, power = governor.predict_pairs(
                dataset, workload, scale
            )
            energy = seconds * power
            classes[workload] = {
                "seconds": [float(s) for s in seconds],
                "power_w": [float(p) for p in power],
                "energy_j": [float(e) for e in energy],
            }
        table[spec.name] = {
            "pairs": nominal["pairs"],
            "classes": classes,
            "nominal": nominal,
        }
    return table
