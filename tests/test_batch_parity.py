"""Batch-path parity: the columnar fast path must be byte-identical.

Four layers are checked against their scalar counterparts:

* ``repro.rng.StreamBank`` vs ``repro.rng.stream`` (bit-equal draws),
* ``GPUSimulator.run_grid`` / ``Testbed.measure_grid`` vs the scalar
  ``set_clocks`` + ``run`` / ``measure`` protocol,
* ``evaluate_fast`` vs ``WorkUnit.execute`` payloads — including a
  hypothesis sweep over random synthetic-kernel grids, because payload
  equality must hold for *any* workload, not just the curated 37,
* the columnar ``BatchSimulator`` (run records, fleet shard payloads,
  nominal tables) vs the per-cell scalar evaluators it replaced, kept
  below as oracles — on synthesized devices at the extremes of the
  synthesis spread, zero-noise traits, throttling dies and thermal
  solves cut off at ``max_iterations``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rng_module
from repro.arch import registry
from repro.arch.specs import GPUSpec, all_gpus, get_gpu
from repro.engine.batch import MEAN_OVERHEAD_FACTOR, BatchSimulator
from repro.engine.cache import simulate_cache
from repro.engine.noise import lognormal_factor
from repro.engine.power import idle_gpu_power, simulate_power
from repro.engine.simulator import RunRecord, _cpi_cv
from repro.engine.thermal import solve_thermal, solve_thermal_columns
from repro.engine.timing import simulate_timing
from repro.execution.batch import evaluate_fast, is_batchable, prepare_units
from repro.execution.units import DatasetUnit, SweepUnit, sweep_units
from repro.instruments.testbed import Testbed
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.kernels.synthetic import generate_kernel
from repro.fleet import fleet_shard_units, run_fleet_campaign
from repro.fleet.model import nominal_table
from repro.rng import StreamBank, seed_state_words, stream
from repro.session import FleetSpec, RunContext

_GPU_NAMES = [g.name for g in all_gpus()]

gpu_names = st.sampled_from(_GPU_NAMES)
kernel_indices = st.integers(min_value=0, max_value=200)
scales = st.sampled_from([0.05, 0.2, 0.5, 1.0])
seeds = st.sampled_from([None, 0, 987654321])


class TestStreamBank:
    def test_seed_state_words_match_seedsequence(self):
        rng = np.random.default_rng(42)
        hashes = [int(h) for h in rng.integers(0, 1 << 64, 64, dtype=np.uint64)]
        hashes += [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
        words = seed_state_words(20140519, hashes)
        for h, row in zip(hashes, words):
            ref = np.random.SeedSequence([20140519, h])
            assert np.array_equal(ref.generate_state(4, dtype=np.uint64), row)

    def test_small_batches_use_reference_path(self):
        words = seed_state_words(7, [123456789])
        ref = np.random.SeedSequence([7, 123456789])
        assert np.array_equal(ref.generate_state(4, dtype=np.uint64), words[0])

    @pytest.mark.parametrize("seed", [None, 0, 31337])
    def test_bank_draws_bit_equal_to_stream(self, seed):
        coords = [
            ("timing-jitter", "GTX 480", f"bench-{i}", 0.25, "H-H")
            for i in range(20)
        ] + [("meter", "GTX 680", "kmeans", 1.0, "L-M")]
        bank = StreamBank(seed)
        bank.prepare(coords)
        for c in coords:
            ref = stream(*c, seed=seed)
            fast = bank.stream(*c)
            assert np.array_equal(
                ref.normal(0.0, 1.0, size=5), fast.normal(0.0, 1.0, size=5)
            )
            assert stream(*c, seed=seed).uniform(0.25, 2.75) == bank.stream(
                *c
            ).uniform(0.25, 2.75)

    def test_prepare_hashes_each_distinct_coordinate_once(self, monkeypatch):
        calls = []

        def counting_hash(*coords):
            calls.append(coords)
            return real_hash(*coords)

        real_hash = rng_module.stable_hash
        monkeypatch.setattr(rng_module, "stable_hash", counting_hash)
        per_kernel = [("cpi-fixed-effect", "GTX 480", f"k{i}") for i in range(3)]
        per_cell = [("timing-jitter", "GTX 480", "k0", 0.25, p) for p in "ABCD"]
        grid = [c for p in per_cell for c in (p, *per_kernel)]
        bank = StreamBank(None)
        bank.prepare(grid)
        assert sorted(calls) == sorted(per_kernel + per_cell)
        bank.prepare(grid)  # everything seeded: nothing hashed again
        assert len(calls) == 7

    def test_unprepared_coords_seed_on_demand(self):
        bank = StreamBank(None)
        coords = ("host-power", "GTX 285", "srad")
        assert np.array_equal(
            stream(*coords).normal(size=3), bank.stream(*coords).normal(size=3)
        )


class TestGridShims:
    def test_simulator_run_grid_matches_scalar_runs(self):
        gpu = get_gpu("GTX 480")
        from repro.engine.simulator import GPUSimulator

        kernels = [get_benchmark("kmeans"), get_benchmark("hotspot")]
        cells = [
            (kernel, scale, op)
            for kernel in kernels
            for scale in (0.25, 1.0)
            for op in gpu.operating_points()[:3]
        ]
        batch = GPUSimulator(gpu).run_grid(cells)
        scalar_sim = GPUSimulator(gpu)
        for (kernel, scale, op), record in zip(cells, batch):
            scalar_sim.set_clocks(op.core_level, op.mem_level)
            assert scalar_sim.run(kernel, scale) == record

    def test_testbed_measure_grid_matches_scalar_protocol(self):
        gpu = get_gpu("GTX 460")
        kernel = get_benchmark("nn")
        cells = [(kernel, 0.25, op) for op in gpu.operating_points()]
        batch = Testbed(gpu).measure_grid(cells)
        scalar_bed = Testbed(gpu)
        for (kernel, scale, op), m in zip(cells, batch):
            scalar_bed.set_clocks(op.core_level, op.mem_level)
            ref = scalar_bed.measure(kernel, scale)
            assert ref.exec_seconds == m.exec_seconds
            assert ref.avg_power_w == m.avg_power_w
            assert ref.energy_j == m.energy_j
            assert ref.repeats == m.repeats
            assert np.array_equal(ref.trace.samples, m.trace.samples)


def _payloads_equal(scalar, fast) -> bool:
    return json.dumps(scalar, sort_keys=True) == json.dumps(
        fast, sort_keys=True
    )


class TestUnitParity:
    def test_sweep_units_byte_identical(self):
        gpu = get_gpu("GTX 460")
        units = sweep_units(gpu, all_benchmarks()[:4], scale=0.25)
        scalar = [u.execute() for u in units]
        prepare_units(units)
        fast = [evaluate_fast(u) for u in units]
        for ref, got in zip(scalar, fast):
            assert _payloads_equal(ref, got)

    def test_dataset_unit_byte_identical_including_profiler_failure(self):
        gpu = get_gpu("GTX 680")
        for name in ("kmeans", "bfs"):  # bfs: profiler_ok is False
            unit = DatasetUnit(
                gpu=gpu, kernel=get_benchmark(name), seed=None, scale=0.5
            )
            prepare_units([unit])
            assert _payloads_equal(unit.execute(), evaluate_fast(unit))

    def test_faulted_units_are_not_batchable(self):
        from repro.faults.plan import aggressive_plan

        gpu = get_gpu("GTX 480")
        unit = SweepUnit(
            gpu=gpu,
            kernel=get_benchmark("nn"),
            seed=None,
            faults=aggressive_plan(),
        )
        assert not is_batchable(unit)

    @settings(max_examples=12, deadline=None)
    @given(
        gpu_name=gpu_names,
        indices=st.lists(
            kernel_indices, min_size=1, max_size=3, unique=True
        ),
        scale=scales,
        seed=seeds,
    )
    def test_random_sweep_grids_byte_identical(
        self, gpu_name, indices, scale, seed
    ):
        gpu = get_gpu(gpu_name)
        kernels = [generate_kernel(i) for i in indices]
        units = sweep_units(gpu, kernels, scale=scale, seed=seed)
        scalar = [u.execute() for u in units]
        prepare_units(units)
        fast = [evaluate_fast(u) for u in units]
        for ref, got in zip(scalar, fast):
            assert _payloads_equal(ref, got)

    @settings(max_examples=8, deadline=None)
    @given(
        gpu_name=gpu_names, index=kernel_indices, scale=scales, seed=seeds
    )
    def test_random_dataset_units_byte_identical(
        self, gpu_name, index, scale, seed
    ):
        gpu = get_gpu(gpu_name)
        unit = DatasetUnit(
            gpu=gpu,
            kernel=generate_kernel(index),
            seed=seed,
            scale=scale,
            profiler_seed=seed,
        )
        prepare_units([unit])
        assert _payloads_equal(unit.execute(), evaluate_fast(unit))


class TestSpecPickleStability:
    def test_operating_point_memo_never_leaks_into_pickles(self):
        gpu = get_gpu("GTX 460")
        before = pickle.dumps(gpu, protocol=pickle.HIGHEST_PROTOCOL)
        gpu.operating_points()
        gpu.operating_point("H-H")
        after = pickle.dumps(gpu, protocol=pickle.HIGHEST_PROTOCOL)
        # The persistent pool keys on the pickled-units digest; memo
        # population must not change the serialized form.
        assert before == after
        clone = pickle.loads(after)
        assert clone == gpu
        assert clone.operating_point("H-H") == gpu.operating_point("H-H")

    def test_memoized_operating_points_stay_correct(self):
        gpu = get_gpu("GTX 480")
        first = gpu.operating_points()
        second = gpu.operating_points()
        assert first == second
        assert gpu.operating_point("H-H") is gpu.operating_point("H-H")
        from repro.errors import InvalidOperatingPointError

        with pytest.raises(InvalidOperatingPointError):
            get_gpu("GTX 680").operating_point("L-L")


# ----------------------------------------------------------------------
# oracles: the per-cell scalar evaluators the columnar pass replaced
# ----------------------------------------------------------------------


def _oracle_record(spec, kernel, scale, op, seed=None, ambient_c=25.0):
    """One cell through the scalar physics, five fresh noise streams."""
    work = kernel.work(scale)
    cache = simulate_cache(work, spec)
    timing = simulate_timing(work, cache, spec, op)
    power = simulate_power(cache, timing, spec, op)
    traits = spec.traits
    g, k = spec.name, kernel.name
    jitter = lognormal_factor(
        stream("timing-jitter", g, k, scale, op.key, seed=seed),
        traits.timing_jitter_cv,
    )
    cpi = lognormal_factor(
        stream("cpi-fixed-effect", g, k, seed=seed), _cpi_cv(kernel, traits)
    )
    overhead_s = traits.driver_overhead_s * float(
        stream("driver-overhead", g, k, scale, seed=seed).uniform(0.25, 2.75)
    )
    cv = traits.unmodeled_power_cv
    fixed = lognormal_factor(stream("power-fixed-effect", g, k, seed=seed), cv * 0.9)
    interaction = lognormal_factor(
        stream("power-pair-effect", g, k, op.key, seed=seed), cv * 0.10
    )
    dynamic = power.core_dynamic_w + power.mem_background_w + power.dram_access_w
    thermal = solve_thermal(
        spec,
        dynamic_w=dynamic * fixed * interaction,
        static_w=power.static_w,
        ambient_c=ambient_c,
    )
    kernel_seconds = timing.t_kernel * jitter * cpi
    total_seconds = (
        kernel_seconds
        + timing.t_launch
        + timing.t_transfer
        + timing.t_host
        + overhead_s
    )
    return RunRecord(
        gpu=spec,
        kernel=kernel,
        scale=scale,
        op=op,
        work=work,
        cache=cache,
        timing=timing,
        power=power,
        kernel_seconds=kernel_seconds,
        overhead_seconds=overhead_s,
        total_seconds=total_seconds,
        gpu_active_power_w=thermal.power_w,
        gpu_idle_power_w=idle_gpu_power(spec, op),
        die_temp_c=thermal.die_c,
        throttling=thermal.throttling,
    )


def _oracle_nominal_cell(spec, kernel, scale, op):
    """Noise-free ``(seconds, energy_j)`` of one cell, scalar physics."""
    work = kernel.work(scale)
    cache = simulate_cache(work, spec)
    timing = simulate_timing(work, cache, spec, op)
    power = simulate_power(cache, timing, spec, op)
    dynamic = power.core_dynamic_w + power.mem_background_w + power.dram_access_w
    thermal = solve_thermal(
        spec, dynamic_w=dynamic, static_w=power.static_w, ambient_c=25.0
    )
    overhead_s = spec.traits.driver_overhead_s * MEAN_OVERHEAD_FACTOR
    busy_s = timing.t_kernel + timing.t_launch
    idle_s = timing.t_transfer + timing.t_host + overhead_s
    energy_j = thermal.power_w * busy_s + idle_gpu_power(spec, op) * idle_s
    return (busy_s + idle_s, energy_j)


def _oracle_nominal_table(spec, workloads, scale):
    ops = spec.operating_points()
    rows = [
        [_oracle_nominal_cell(spec, get_benchmark(name), scale, op) for op in ops]
        for name in workloads
    ]
    return {
        "pairs": [op.key for op in ops],
        "seconds": [[float(s) for s, _ in row] for row in rows],
        "energy_j": [[float(e) for _, e in row] for row in rows],
    }


def _oracle_shard(unit):
    """A fleet shard payload from 56 run records + 56 nominal cells per device."""
    kernels = [get_benchmark(name) for name in unit.workloads]
    devices = []
    for index, spec in unit._device_specs():
        ops = spec.operating_points()
        records = [
            [_oracle_record(spec, k, unit.scale, op, seed=unit.seed) for op in ops]
            for k in kernels
        ]
        nominal = _oracle_nominal_table(spec, unit.workloads, unit.scale)
        devices.append(
            {
                "index": index,
                "device_id": registry.device_id(spec),
                "name": spec.name,
                "template": unit.templates[index % len(unit.templates)],
                "reconfigure_seconds": float(spec.reconfigure_seconds),
                "reconfigure_power_w": float(spec.reconfigure_power_w),
                "pairs": [op.key for op in ops],
                "idle_power_w": [float(r.gpu_idle_power_w) for r in records[0]],
                "true_energy_j": [
                    [float(r.gpu_energy_j) for r in row] for row in records
                ],
                "true_seconds": [
                    [float(r.total_seconds) for r in row] for row in records
                ],
                "nominal_seconds": nominal["seconds"],
                "nominal_energy_j": nominal["energy_j"],
            }
        )
    return {
        "kind": unit.kind,
        "start": unit.start,
        "stop": unit.stop,
        "devices": devices,
    }


def _quiet_traits(monkeypatch, **overrides):
    """Patch every card's traits (both evaluators read ``spec.traits``)."""
    real = GPUSpec.traits.fget
    monkeypatch.setattr(
        GPUSpec,
        "traits",
        property(lambda spec: dataclasses.replace(real(spec), **overrides)),
    )


#: The synthesis spread's extremes: none, and just under the 0.5 cap.
JITTER_EXTREMES = (0.0, 0.4999)


class TestColumnarOracleParity:
    @settings(max_examples=10, deadline=None)
    @given(
        template=gpu_names,
        index=st.integers(min_value=0, max_value=10_000),
        jitter_pct=st.sampled_from(JITTER_EXTREMES + (0.05,)),
        kernels=st.lists(kernel_indices, min_size=1, max_size=3, unique=True),
        scale=scales,
        seed=seeds,
    )
    def test_records_byte_identical_on_synthesized_devices(
        self, template, index, jitter_pct, kernels, scale, seed
    ):
        spec = registry.synthesize(template, index, seed=seed, jitter_pct=jitter_pct)
        cells = [
            (generate_kernel(i), s, op)
            for i in kernels
            for s in (scale, 1.0)
            for op in spec.operating_points()
        ]
        grid = BatchSimulator(spec, seed=seed).run_grid(cells)
        for cell, record in zip(cells, grid):
            assert repr(record) == repr(_oracle_record(spec, *cell, seed=seed))
        # a memo miss is a one-cell grid through the same evaluator
        single = BatchSimulator(spec, seed=seed).record(*cells[-1])
        assert repr(single) == repr(grid[-1])

    def test_prepare_leaves_a_rejected_cell_to_record(self):
        spec, kernel = get_gpu("GTX 460"), get_benchmark("nn")
        op = spec.operating_points()[0]
        sim = BatchSimulator(spec)
        sim.prepare([(kernel, 0.5, op), (kernel, -1.0, op)])
        assert repr(sim.record(kernel, 0.5, op)) == repr(
            _oracle_record(spec, kernel, 0.5, op)
        )
        with pytest.raises(ValueError, match="input scale"):
            sim.record(kernel, -1.0, op)

    @pytest.mark.parametrize("jitter_pct", JITTER_EXTREMES)
    @pytest.mark.parametrize("seed", [None, 3])
    def test_fleet_shard_payloads_byte_identical(self, jitter_pct, seed):
        fleet = FleetSpec(devices=6, shard_devices=3, jitter_pct=jitter_pct)
        for unit in fleet_shard_units(fleet, seed=seed):
            assert json.dumps(unit.execute()) == json.dumps(_oracle_shard(unit))

    @pytest.mark.parametrize("jitter_pct", JITTER_EXTREMES)
    def test_nominal_tables_byte_identical(self, jitter_pct):
        workloads = FleetSpec().workloads
        specs = list(all_gpus()) + [
            registry.synthesize(g.name, 17, seed=5, jitter_pct=jitter_pct)
            for g in all_gpus()
        ]
        for spec in specs:
            assert json.dumps(nominal_table(spec, workloads, 0.25)) == json.dumps(
                _oracle_nominal_table(spec, workloads, 0.25)
            )

    def test_zero_cv_traits_draw_nothing(self, monkeypatch):
        _quiet_traits(monkeypatch, timing_jitter_cv=0.0, unmodeled_power_cv=0.0)
        spec = get_gpu("GTX 285")
        sim = BatchSimulator(spec)
        drawn = []
        real_stream = sim.streams.stream
        sim.streams.stream = lambda *c: drawn.append(c[0]) or real_stream(*c)
        cells = [(get_benchmark("kmeans"), 0.5, op) for op in spec.operating_points()]
        for cell, record in zip(cells, sim.run_grid(cells)):
            assert repr(record) == repr(_oracle_record(spec, *cell))
        # the per-cell streams are not even seeded (the per-kernel ones
        # go through ``lognormal_factor``, which draws nothing at cv 0)
        assert "timing-jitter" not in drawn
        assert "power-pair-effect" not in drawn

    def test_throttling_cells_byte_identical(self):
        # a quarter of the TDP quadruples the cooler's thermal resistance
        card = get_gpu("GTX 480")
        spec = dataclasses.replace(card, tdp_w=card.tdp_w / 4)
        cells = [
            (kernel, 1.0, op)
            for kernel in all_benchmarks()[:6]
            for op in spec.operating_points()
        ]
        records = BatchSimulator(spec).run_grid(cells)
        assert any(r.throttling for r in records)
        assert not all(r.throttling for r in records)
        for cell, record in zip(cells, records):
            assert repr(record) == repr(_oracle_record(spec, *cell))

    @pytest.mark.parametrize("max_iterations", [0, 1, 3, 50])
    @pytest.mark.parametrize("tolerance", [1e-6, -1.0])  # -1: never converges
    def test_thermal_columns_stop_where_the_scalar_loop_stops(
        self, max_iterations, tolerance
    ):
        spec = get_gpu("GTX 680")
        rng = np.random.default_rng(max_iterations)
        dynamic = rng.uniform(0.0, 2.0 * spec.tdp_w, 64)
        static = rng.uniform(0.0, spec.tdp_w, 64)
        dynamic[:2] = 0.0  # converges at once
        die, power, iterations = solve_thermal_columns(
            spec, dynamic, static, 31.0, max_iterations, tolerance
        )
        for lane in range(64):
            ref = solve_thermal(
                spec, dynamic[lane], static[lane], 31.0, max_iterations, tolerance
            )
            assert (die[lane], power[lane], iterations[lane]) == (
                ref.die_c,
                ref.power_w,
                ref.iterations,
            )
        if tolerance < 0:
            assert (iterations == max_iterations).all()
        elif max_iterations == 50:
            assert len(set(iterations.tolist())) > 1  # lanes freeze apart

    def test_thermal_columns_reject_negative_power(self):
        with pytest.raises(ValueError):
            solve_thermal_columns(get_gpu("GTX 460"), np.array([-1.0]), np.array([1.0]))


def _cache_entries(directory):
    root = pathlib.Path(directory) / "cache"
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestFleetCacheEntries:
    def test_serial_pooled_and_resumed_entries_byte_identical(self, tmp_path):
        fleet = FleetSpec(devices=8, jobs_total=400, shard_devices=2)

        def run(name, jobs=1, resume=False):
            directory = tmp_path / name
            ctx = RunContext.resolve(seed=13, artifact_dir=directory)
            ctx = dataclasses.replace(
                ctx, execution=dataclasses.replace(ctx.execution, jobs=jobs)
            )
            run_fleet_campaign(fleet, ctx, directory, resume=resume)
            return directory

        serial = _cache_entries(run("serial"))
        assert len(serial) == 4
        assert _cache_entries(run("pooled", jobs=2)) == serial

        # a run killed after its first shard: one journaled, cached shard
        resumed = run("resumed")
        journal = resumed / "journal.jsonl"
        header, first, *rest = journal.read_text().splitlines()
        journal.write_text(f"{header}\n{first}\n")
        for line in rest:
            key = json.loads(line)["key"]
            (resumed / "cache" / key[:2] / f"{key}.json").unlink()
        (resumed / "fleet.json").unlink()
        run("resumed", resume=True)
        assert _cache_entries(resumed) == serial
