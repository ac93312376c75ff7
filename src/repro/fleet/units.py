"""Fleet shard work units: per-device tables through the batch engine.

A fleet campaign's measured substance is one power/perf table per
device — true energy, time and idle power for every (workload class,
frequency pair) cell, plus the noise-free nominal cells the model
handles scale by.  A :class:`FleetShardUnit` evaluates a contiguous
slice of the inventory (``shard_devices`` devices per unit), so a
1000-device fleet becomes a few dozen cacheable, journal-able,
pool-schedulable units rather than 10^5 tiny ones.

Shards synthesize their devices from ``(template, index, seed)``
coordinates — the unit carries no device specs, only the recipe — and
evaluate each device's (class x pair) grid in one columnar pass
(``BatchSimulator.tables``): the noisy true tables and the noise-free
nominal tables come from the same physics evaluation, with no per-cell
run records.  Shard payloads are deterministic in the unit spec alone:
byte-identical serial, pooled and resumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.arch import registry
from repro.engine.batch import BatchSimulator
from repro.execution.units import WorkUnit
from repro.kernels.suites import get_benchmark

if TYPE_CHECKING:  # session imports the engine; keep the cycle static-only
    from repro.session.spec import FleetSpec


@dataclass(frozen=True)
class FleetShardUnit(WorkUnit):
    """Tables for inventory slice ``[start, stop)`` of one fleet."""

    #: Template names the inventory cycles through (canonical spelling).
    templates: tuple[str, ...] = ()
    #: Half-open device-index range this shard evaluates.
    start: int = 0
    stop: int = 0
    #: Synthesis spread (see :mod:`repro.arch.registry`).
    jitter_pct: float = registry.DEFAULT_JITTER_PCT
    #: Workload classes of the job stream, at one input scale.
    workloads: tuple[str, ...] = ()
    scale: float = 0.25

    kind = "fleet-shard"

    def spec(self) -> dict[str, Any]:
        return {
            "templates": list(self.templates),
            "start": self.start,
            "stop": self.stop,
            "jitter_pct": self.jitter_pct,
            "workloads": list(self.workloads),
            "scale": self.scale,
        }

    def _device_specs(self):
        n = len(self.templates)
        for index in range(self.start, self.stop):
            yield index, registry.synthesize(
                self.templates[index % n],
                index // n,
                seed=self.seed,
                jitter_pct=self.jitter_pct,
            )

    def execute(self) -> dict[str, Any]:
        injector = self.injector()
        if injector is not None:
            injector.check_crash(
                self.kind, self.gpu.name, self.kernel.name, self.start
            )
        kernels = [get_benchmark(name) for name in self.workloads]
        devices = []
        for index, spec in self._device_specs():
            # One fresh simulator per device: each device is evaluated
            # exactly once, so a shared memo would only thrash.
            tables = BatchSimulator(spec, seed=self.seed).tables(
                kernels, self.scale
            )
            devices.append(
                {
                    "index": index,
                    "device_id": registry.device_id(spec),
                    "name": spec.name,
                    "template": self.templates[index % len(self.templates)],
                    "reconfigure_seconds": float(spec.reconfigure_seconds),
                    "reconfigure_power_w": float(spec.reconfigure_power_w),
                    "pairs": tables["pairs"],
                    "idle_power_w": tables["idle_power_w"],
                    "true_energy_j": tables["true_energy_j"],
                    "true_seconds": tables["true_seconds"],
                    "nominal_seconds": tables["nominal_seconds"],
                    "nominal_energy_j": tables["nominal_energy_j"],
                }
            )
        return {
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "devices": devices,
        }

    def __str__(self) -> str:
        return f"fleet-shard([{self.start}:{self.stop}])"


def fleet_shard_units(
    fleet_spec: "FleetSpec", seed: int | None = None
) -> list[FleetShardUnit]:
    """Decompose a fleet campaign into device-range shards.

    The representative ``gpu``/``kernel`` carried by each unit (the
    first template card and first workload class) is what engine spans,
    breakers and journal entries label the shard with; the shard's own
    devices are synthesized at execution time.
    """
    from repro.arch.specs import get_gpu

    templates = tuple(
        get_gpu(name).name for name in fleet_spec.templates
    )
    gpu = get_gpu(templates[0])
    kernel = get_benchmark(fleet_spec.workloads[0])
    shard = fleet_spec.shard_devices
    return [
        FleetShardUnit(
            gpu=gpu,
            kernel=kernel,
            seed=seed,
            faults=None,
            templates=templates,
            start=start,
            stop=min(start + shard, fleet_spec.devices),
            jitter_pct=fleet_spec.jitter_pct,
            workloads=tuple(fleet_spec.workloads),
            scale=fleet_spec.scale,
        )
        for start in range(0, fleet_spec.devices, shard)
    ]
