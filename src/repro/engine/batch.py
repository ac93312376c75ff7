"""Columnar batch evaluation of (benchmark x frequency-pair) grids.

The paper's campaigns are grid-shaped: every benchmark at every Table
III operating point, at several input scales.  :class:`BatchSimulator`
evaluates a whole grid in one columnar pass over a flat cell axis:
per-(kernel, scale) values (work, cache outcome, issue-weighted ops,
scheduler efficiency, the per-kernel noise draws) and per-pair values
(peak flops, voltage ratios, static, memory-background and idle power)
are computed once and gathered onto the cells; timing, power and the
thermal fixed point are numpy columns; the two per-cell noise streams
are vector-seeded (:class:`repro.rng.StreamBank`) and exponentiated in
one ``np.exp``.

Records are byte-identical to ``GPUSimulator.run`` by two rules: every
``+ - * /`` keeps the scalar code's association order (numpy and Python
round IEEE basic operations alike), and every ``**`` stays a Python
float pow over the per-cell values, because numpy's SIMD ``power`` (even
``np.square``) differs from libm ``pow`` in the last ulp
(docs/ARCHITECTURE.md).  tests/test_batch_parity.py keeps the per-cell
scalar evaluator as the oracle.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Iterable, Sequence

import numpy as np

from repro.arch.dvfs import ClockLevel, OperatingPoint
from repro.arch.specs import GPUSpec
from repro.engine.cache import simulate_cache
from repro.engine.noise import lognormal_factor, lognormal_sigma
from repro.engine.occupancy import scheduler_efficiency
from repro.engine.power import PowerBreakdown, _mem_background, _static_power
from repro.engine.power import idle_gpu_power
from repro.engine.simulator import RunRecord, _cpi_cv
from repro.engine.thermal import T_THROTTLE, solve_thermal_columns
from repro.engine.timing import ISSUE_BW_HEADROOM, STREAM_EFFICIENCY
from repro.engine.timing import TimingBreakdown, compute_work_ops
from repro.kernels.profile import KernelSpec
from repro.rng import StreamBank, stable_hash

#: One grid cell: (kernel, input scale, operating point).
Cell = "tuple[KernelSpec, float, OperatingPoint]"

#: Expected value of the driver-overhead draw (``U(0.25, 2.75)`` times
#: the trait constant): nominal tables are noise-free, so the overhead
#: enters at its mean.
MEAN_OVERHEAD_FACTOR = 1.5

#: Cap on the identity-keyed fingerprint memo (defensive; real runs hold
#: a handful of specs, test suites churn through many).
_FP_CAP = 4096

_CONTENT_FPS: dict[int, tuple[Any, int]] = {}


def content_fingerprint(obj: Any) -> int:
    """Stable content hash of a frozen spec, memoized by identity.

    ``repr`` of a frozen dataclass enumerates every field
    deterministically, so the hash changes whenever the spec's content
    does — the property the batch memos key on.
    """
    entry = _CONTENT_FPS.get(id(obj))
    if entry is None or entry[0] is not obj:
        if len(_CONTENT_FPS) >= _FP_CAP:
            _CONTENT_FPS.clear()
        entry = (obj, stable_hash(repr(obj)))
        _CONTENT_FPS[id(obj)] = entry
    return entry[1]


class BatchSimulator:
    """Grid-shaped, memoizing counterpart of :class:`GPUSimulator`.

    Unlike the scalar simulator there is no "currently flashed" clock
    state: every cell names its operating point explicitly, which is
    what makes cells independent and the grid embarrassingly columnar.

    Parameters
    ----------
    spec:
        The card every cell of this simulator's grids runs on.
    seed:
        Optional override of the global noise seed (as in ``stream``).
    ambient_c:
        Ambient temperature of the thermal solve.
    """

    def __init__(
        self, spec: GPUSpec, seed: int | None = None, ambient_c: float = 25.0
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.ambient_c = ambient_c
        self.streams = StreamBank(seed)
        self._kernel_rows: dict[tuple, tuple] = {}
        self._op_rows: dict[str, tuple] = {}
        self._records: dict[tuple, RunRecord] = {}

    def _record_key(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> tuple:
        return (content_fingerprint(kernel), scale, op.key)

    def prepare(self, cells: Iterable[Cell]) -> None:
        """Evaluate every not-yet-memoized cell in one columnar pass.

        Best-effort: if the physics rejects any cell, nothing is memoized
        and :meth:`record` raises for that cell alone.
        """
        missing = {self._record_key(*cell): cell for cell in cells}
        missing = {k: c for k, c in missing.items() if k not in self._records}
        try:
            records = self._run_records([*missing.values()])
        except (ArithmeticError, ValueError):
            return
        self._records.update(zip(missing, records))

    def record(
        self, kernel: KernelSpec, scale: float, op: OperatingPoint
    ) -> RunRecord:
        """The cell's run record, byte-identical to ``GPUSimulator.run``."""
        key = self._record_key(kernel, scale, op)
        record = self._records.get(key)
        if record is None:
            cell = (kernel, scale, op)
            record = self._records[key] = self._run_records([cell])[0]
        return record

    def run_grid(self, cells: Sequence[Cell]) -> list[RunRecord]:
        """Evaluate a whole grid in one pass, then read every cell."""
        self.prepare(cells)
        return [self.record(kernel, scale, op) for kernel, scale, op in cells]

    def _run_records(self, cells: list[Cell]) -> list[RunRecord]:
        if not cells:
            return []
        c = self._columns(cells)
        columns = (
            c.t_compute, c.t_memory, c.t_kernel, c.t_launch, c.t_transfer,
            c.t_host, c.static, c.core_dyn, c.mem_bg, c.dram_access, c.kernel_s,
            c.overhead, c.total_s, c.active_w, c.idle_w, c.die_c,
        )
        return [
            RunRecord(
                self.spec, kernel, scale, op, row[0], row[1],
                TimingBreakdown(tc, tm, tk, tl, tt, th),
                PowerBreakdown(st, cd, mb, da),
                ks, ov, total, active, idle, die, die > T_THROTTLE,
            )
            for (kernel, scale, op), row, (
                tc, tm, tk, tl, tt, th, st, cd, mb, da, ks, ov, total, active,
                idle, die,
            ) in zip(cells, c.rows, zip(*(col.tolist() for col in columns)))
        ]

    def tables(
        self, kernels: Sequence[KernelSpec], scale: float
    ) -> dict[str, Any]:
        """True and nominal tables of ``kernels`` x this card's pairs.

        One columnar pass yields both: true cells hold what the run
        records would (``total_seconds``, ``gpu_energy_j``); nominal
        cells drop every noise factor and take the driver overhead at
        its mean.  Rows follow ``kernels``, columns the Table III
        (highest-first) pair order.
        """
        ops = self.spec.operating_points()
        c = self._columns([(kernel, scale, op) for kernel in kernels for op in ops])
        true_energy = c.active_w * (c.kernel_s + c.t_launch) + c.idle_w * (
            c.t_transfer + c.t_host + c.overhead
        )
        _, nominal_w, _ = solve_thermal_columns(
            self.spec, c.dynamic, c.static, ambient_c=self.ambient_c
        )
        overhead = self.spec.traits.driver_overhead_s * MEAN_OVERHEAD_FACTOR
        busy_s = c.t_kernel + c.t_launch
        idle_s = c.t_transfer + c.t_host + overhead

        def rows(column: np.ndarray) -> list[list[float]]:
            flat, n = column.tolist(), len(ops)
            return [flat[i : i + n] for i in range(0, len(flat), n)]

        return {
            "pairs": [op.key for op in ops],
            "idle_power_w": c.idle_w[: len(ops)].tolist(),
            "true_energy_j": rows(true_energy),
            "true_seconds": rows(c.total_s),
            "nominal_seconds": rows(busy_s + idle_s),
            "nominal_energy_j": rows(nominal_w * busy_s + c.idle_w * idle_s),
        }

    def _kernel_row(self, kernel: KernelSpec, scale: float) -> tuple:
        """Per-(kernel, scale) values, including the per-kernel draws."""
        key = (content_fingerprint(kernel), scale)
        row = self._kernel_rows.get(key)
        if row is None:
            spec, traits, streams = self.spec, self.spec.traits, self.streams
            g, k = spec.name, kernel.name
            work = kernel.work(scale)
            cache = simulate_cache(work, spec)
            cpi_rng = streams.stream("cpi-fixed-effect", g, k)
            cpi = lognormal_factor(cpi_rng, _cpi_cv(kernel, traits))
            overhead_rng = streams.stream("driver-overhead", g, k, scale)
            overhead_factor = float(overhead_rng.uniform(0.25, 2.75))
            fixed_rng = streams.stream("power-fixed-effect", g, k)
            fixed = lognormal_factor(fixed_rng, traits.unmodeled_power_cv * 0.9)
            row = self._kernel_rows[key] = (
                work, cache, compute_work_ops(work),
                scheduler_efficiency(work.occupancy, work.divergence, traits),
                work.occupancy**0.3, 0.45 + 0.55 * work.coalescing, cache.dram_bytes,
                work.launches * traits.launch_overhead_s,
                work.pcie_bytes / (traits.pcie_gb_s * 1e9), work.host_seconds,
                cpi, traits.driver_overhead_s * overhead_factor, fixed,
            )
        return row

    def _op_row(self, op: OperatingPoint) -> tuple:
        """Per-pair values of this card."""
        row = self._op_rows.get(op.key)
        if row is None:
            spec = self.spec
            v_rel = op.core_voltage / spec.core_vdd.at(ClockLevel.H)
            f_rel = op.core_mhz / spec.core_freq(ClockLevel.H)
            vm_rel = op.mem_voltage / spec.mem_vdd.at(ClockLevel.H)
            row = self._op_rows[op.key] = (
                spec.peak_flops(op), ISSUE_BW_HEADROOM * f_rel,
                op.mem_mhz / spec.mem_freq(ClockLevel.H), v_rel**2, f_rel, vm_rel**2,
                _static_power(spec, op), _mem_background(spec, op),
                idle_gpu_power(spec, op),
            )
        return row

    def _lognormals(self, coords: list[tuple], cv: float) -> np.ndarray:
        """``lognormal_factor`` of every stream in ``coords``, in one exp.

        ``Generator.normal(0, s)`` is ``0 + s * standard_normal()``, so
        the column equals the scalar draws bit for bit; a zero ``cv``
        draws nothing, as in the scalar path.
        """
        sigma = lognormal_sigma(cv)
        if cv == 0:
            return np.ones(len(coords))
        z = np.array([self.streams.stream(*c).standard_normal() for c in coords])
        return np.exp(0.0 + sigma * z)

    def _columns(self, cells: list[Cell]) -> SimpleNamespace:
        """Every quantity of a ``GPUSimulator.run`` as a column over cells."""
        spec, traits, c = self.spec, self.spec.traits, SimpleNamespace()
        g = spec.name
        jitter_at = [("timing-jitter", g, k.name, s, op.key) for k, s, op in cells]
        pair_at = [("power-pair-effect", g, k.name, op.key) for k, _, op in cells]
        kernel_at = [
            coords
            for k, s in dict.fromkeys((k.name, s) for k, s, _ in cells)
            for coords in (
                ("cpi-fixed-effect", g, k),
                ("driver-overhead", g, k, s),
                ("power-fixed-effect", g, k),
            )
        ]
        self.streams.prepare(jitter_at + pair_at + kernel_at)
        c.rows = [self._kernel_row(kernel, scale) for kernel, scale, _ in cells]
        (
            ops_w, sched, occ03, mem_exp, dram_bytes, c.t_launch, c.t_transfer,
            c.t_host, cpi, c.overhead, fixed,
        ) = np.array([row[2:] for row in c.rows]).T
        (
            peak, issue_rel, mem_rel, v2, f_rel, vm2, c.static, c.mem_bg, c.idle_w,
        ) = np.array([self._op_row(op) for _, _, op in cells]).T
        jitter = self._lognormals(jitter_at, traits.timing_jitter_cv)
        interaction = self._lognormals(pair_at, traits.unmodeled_power_cv * 0.10)
        with np.errstate(divide="raise", invalid="raise"):
            # timing (engine.timing.simulate_timing)
            c.t_compute = ops_w / (peak * sched)
            issue_bw = issue_rel * occ03 * spec.mem_bandwidth_gbs * 1e9
            mem_pow = [m**e for m, e in zip(mem_rel.tolist(), mem_exp.tolist())]
            bandwidth = spec.mem_bandwidth_gbs * 1e9
            mem_bw = bandwidth * np.array(mem_pow) * STREAM_EFFICIENCY
            c.t_memory = dram_bytes / np.minimum(mem_bw, issue_bw)
            p = traits.overlap_exponent
            c.t_kernel = np.array(
                [
                    (tc**p + tm**p) ** (1.0 / p)
                    for tc, tm in zip(c.t_compute.tolist(), c.t_memory.tolist())
                ]
            )
            # power (engine.power.simulate_power)
            busy = c.t_kernel > 0
            safe_kernel = np.where(busy, c.t_kernel, 1.0)
            util = np.where(busy, np.minimum(1.0, c.t_compute / safe_kernel), 0.0)
            traffic = np.where(busy, dram_bytes / 1e9 / safe_kernel, 0.0)
        c.core_dyn = spec.power.core_dyn_w * util * v2 * f_rel
        c.dram_access = spec.power.dram_access_j_per_gb * traffic * vm2
        c.dynamic = c.core_dyn + c.mem_bg + c.dram_access
        c.die_c, c.active_w, _ = solve_thermal_columns(
            spec, c.dynamic * fixed * interaction, c.static, ambient_c=self.ambient_c
        )
        c.kernel_s = c.t_kernel * jitter * cpi
        c.total_s = c.kernel_s + c.t_launch + c.t_transfer + c.t_host + c.overhead
        return c
