"""Batch measurement: whole (benchmark x frequency-pair) grids per call.

:class:`BatchMeasurer` is the instruments-layer counterpart of
:class:`~repro.engine.batch.BatchSimulator`: it produces the exact
:class:`~repro.instruments.testbed.Measurement` a fault-free
:class:`~repro.instruments.testbed.Testbed` produces for each grid
cell, and the exact counter totals a
:class:`~repro.instruments.profiler.CudaProfiler` reports — but with
stream seeding vectorized across the grid and every cell memoized, so
warm grids cost dictionary lookups.

Fault injection is deliberately out of scope: injected faults are
per-attempt, stateful, and rare, so faulty units keep the scalar path
(the execution layer routes them there).
"""

from __future__ import annotations

import math

from repro.arch.dvfs import OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.batch import BatchSimulator, content_fingerprint
from repro.engine.counters import counter_set
from repro.engine.noise import lognormal_factor
from repro.engine.phases import busy_phase_profile
from repro.engine.simulator import RunRecord
from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter, PowerPhase
from repro.instruments.profiler import (
    EXTRAPOLATION_BIAS_CV,
    OBSERVATION_NOISE_SCALE,
)
from repro.instruments.testbed import MIN_MEASURE_WINDOW_S, Measurement
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank


class BatchMeasurer:
    """Grid-shaped, memoizing counterpart of a fault-free testbed.

    Parameters
    ----------
    gpu:
        The card under test.
    host / meter:
        Instrumentation; defaults match :class:`Testbed`'s defaults.
    seed:
        Optional override of the global noise seed.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        host: HostSystem | None = None,
        meter: PowerMeter | None = None,
        seed: int | None = None,
        ambient_c: float = 25.0,
    ) -> None:
        self.host = host if host is not None else HostSystem()
        self.meter = meter if meter is not None else PowerMeter()
        self.seed = seed
        self.sim = BatchSimulator(gpu, seed=seed, ambient_c=ambient_c)
        self._measurements: dict[tuple, Measurement] = {}
        self._host_factors: dict[int, float] = {}
        #: Extra per-base-seed banks for profiler streams (a dataset
        #: unit's profiler may run under a different seed override).
        self._profiler_banks: dict[int | None, StreamBank] = {}
        self._counter_totals: dict[tuple, dict[str, float]] = {}

    @property
    def gpu(self) -> GPUSpec:
        """The card under test."""
        return self.sim.spec

    # ------------------------------------------------------------------
    # vectorized seeding
    # ------------------------------------------------------------------

    def prepare(
        self, cells: "list[tuple[KernelSpec, float, OperatingPoint]]"
    ) -> None:
        """Evaluate the cells' physics in one pass; vector-seed their meters."""
        self.sim.prepare(cells)
        g = self.gpu.name
        coords: list[tuple] = []
        for kernel, scale, op in cells:
            if self._measure_key(kernel, scale, op) in self._measurements:
                continue
            coords.append(("host-power", g, kernel.name))
            coords.append(("meter", g, kernel.name, scale, op.key))
        self.sim.streams.prepare(coords)

    def prepare_profiles(
        self,
        cells: "list[tuple[KernelSpec, float]]",
        profiler_seed: int | None = None,
    ) -> None:
        """Vector-seed the profiler streams for (kernel, scale) cells."""
        bank = self._profiler_bank(profiler_seed)
        counters = counter_set(self.gpu.traits.counter_set)
        g = self.gpu.name
        coords: list[tuple] = []
        for kernel, scale in cells:
            if not kernel.profiler_ok:
                continue
            coords.append(("counter-bench-scale", g, kernel.name))
            coords.extend(
                ("counter-noise", g, kernel.name, scale, c.name)
                for c in counters
            )
        bank.prepare(coords)

    def _profiler_bank(self, profiler_seed: int | None) -> StreamBank:
        bank = self._profiler_banks.get(profiler_seed)
        if bank is None:
            bank = self._profiler_banks[profiler_seed] = StreamBank(
                profiler_seed
            )
        return bank

    # ------------------------------------------------------------------
    # measurement (mirrors Testbed.measure, fault-free path)
    # ------------------------------------------------------------------

    def _measure_key(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> tuple:
        return (content_fingerprint(kernel), scale, op.key)

    def measure(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> Measurement:
        """One cell's measurement, byte-identical to ``Testbed.measure``."""
        key = self._measure_key(kernel, scale, op)
        m = self._measurements.get(key)
        if m is None:
            m = self._measurements[key] = self._do_measure(kernel, scale, op)
        return m

    def measure_grid(
        self, cells: "list[tuple[KernelSpec, float, OperatingPoint]]"
    ) -> list[Measurement]:
        """Measure a whole grid: vector-seed once, then fill every cell."""
        self.prepare(cells)
        return [self.measure(kernel, scale, op) for kernel, scale, op in cells]

    def _do_measure(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> Measurement:
        record = self.sim.record(kernel, scale, op)
        busy = record.gpu_busy_seconds
        if busy >= MIN_MEASURE_WINDOW_S:
            repeats = 1
        else:
            repeats = max(1, math.ceil(MIN_MEASURE_WINDOW_S / busy))
        phases = self._wall_profile(record, repeats)
        rng = self.sim.streams.stream(
            "meter", self.gpu.name, kernel.name, scale, op.key
        )
        trace = self.meter.record(phases, rng)
        energy_j = trace.energy_j / repeats
        return Measurement(
            gpu=self.gpu,
            kernel=kernel,
            scale=scale,
            op=record.op,
            exec_seconds=record.total_seconds,
            avg_power_w=trace.average_power_w,
            energy_j=energy_j,
            repeats=repeats,
            trace=trace,
            degraded=False,
        )

    def _host_factor(self, kernel: KernelSpec) -> float:
        key = content_fingerprint(kernel)
        factor = self._host_factors.get(key)
        if factor is None:
            host_rng = self.sim.streams.stream(
                "host-power", self.gpu.name, kernel.name
            )
            factor = self._host_factors[key] = lognormal_factor(host_rng, 0.12)
        return factor

    def _wall_profile(
        self, record: RunRecord, repeats: int
    ) -> list[PowerPhase]:
        # Mirrors Testbed._wall_profile exactly.
        host_factor = self._host_factor(record.kernel)
        host_phase_w = self.host.wall_power(
            self.host.active_power_w * host_factor + record.gpu_idle_power_w
        )
        gpu_phase_w = self.host.wall_power(
            self.host.idle_power_w * host_factor + record.gpu_active_power_w
        )
        phases: list[PowerPhase] = []
        for _ in range(repeats):
            if record.idle_seconds > 0:
                phases.append(PowerPhase(record.idle_seconds, host_phase_w))
            phases.extend(
                PowerPhase(p.duration_s, p.watts)
                for p in busy_phase_profile(record, gpu_phase_w)
            )
        return phases

    # ------------------------------------------------------------------
    # profiler (mirrors CudaProfiler.profile, fault-free path)
    # ------------------------------------------------------------------

    def counter_totals(
        self,
        kernel: KernelSpec,
        scale: float,
        op: OperatingPoint,
        profiler_seed: int | None = None,
        noise_scale: float | None = None,
        bias_cv: float | None = None,
    ) -> dict[str, float]:
        """Counter totals, byte-identical to ``CudaProfiler.profile``.

        ``op`` is the point the profiled run executes at (datasets
        profile at the default H-H clocks).  The caller is responsible
        for the ``profiler_ok`` check — this method assumes an
        analyzable benchmark.
        """
        key = (
            content_fingerprint(kernel),
            scale,
            op.key,
            profiler_seed,
            noise_scale,
            bias_cv,
        )
        totals = self._counter_totals.get(key)
        if totals is None:
            totals = self._counter_totals[key] = self._do_profile(
                kernel, scale, op, profiler_seed, noise_scale, bias_cv
            )
        # Copy so callers mutating the payload can't poison the memo.
        return dict(totals)

    def _do_profile(
        self,
        kernel: KernelSpec,
        scale: float,
        op: OperatingPoint,
        profiler_seed: int | None,
        noise_scale: float | None,
        bias_cv: float | None,
    ) -> dict[str, float]:
        spec = self.gpu
        record = self.sim.record(kernel, scale, op)
        ctx = record.context
        counter_set_name = spec.traits.counter_set
        if noise_scale is None:
            noise_scale = OBSERVATION_NOISE_SCALE[counter_set_name]
        if bias_cv is None:
            bias_cv = EXTRAPOLATION_BIAS_CV[counter_set_name]
        bank = self._profiler_bank(profiler_seed)
        bias_rng = bank.stream("counter-bench-scale", spec.name, kernel.name)
        bias = lognormal_factor(bias_rng, bias_cv)
        values: dict[str, float] = {}
        for counter in counter_set(counter_set_name):
            rng = bank.stream(
                "counter-noise", spec.name, kernel.name, scale, counter.name
            )
            value = counter.evaluate(ctx)
            cv = counter.noise_cv * noise_scale
            values[counter.name] = value * bias * lognormal_factor(rng, cv)
        return values


#: Process-local shared measurers, keyed by (card content, seed).
#: Only default host/meter configurations are memoized (as with
#: ``shared_testbed``); custom instrumentation builds its own measurer.
_SHARED: dict[tuple[int, int | None], BatchMeasurer] = {}

_SHARED_CAP = 64


def shared_batch_measurer(
    gpu: GPUSpec, seed: int | None = None
) -> BatchMeasurer:
    """This process's memoized default batch measurer for a card."""
    key = (content_fingerprint(gpu), seed)
    measurer = _SHARED.get(key)
    if measurer is None:
        if len(_SHARED) >= _SHARED_CAP:
            _SHARED.clear()
        measurer = _SHARED[key] = BatchMeasurer(gpu, seed=seed)
    return measurer
