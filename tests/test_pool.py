"""The persistent worker pool: reuse, teardown, accounting, crashes.

These tests pin the operational guarantees of
:mod:`repro.execution.pool`:

* the pool survives across ``run_units`` calls with the same unit list
  (that is what makes it *persistent*) and is rebuilt when the units
  change;
* ``shutdown_pool`` is idempotent and leaves the module ready for a
  fresh dispatch;
* workers load the read-only arch/kernel state once per process — the
  ``worker.state_loads`` gauge counts worker processes, never units —
  and deterministic counters stay byte-identical across worker counts
  even with worker-side cache writes;
* a crashing worker (``os._exit`` mid-unit) triggers a pool rebuild and
  the batch still completes; a unit that *always* kills its worker
  exhausts the rebuild budget and comes back as a permanent
  ``BrokenProcessPool`` failure instead of hanging the dispatch;
* a fault-injected campaign (the PR 2 chaos plan) produces identical
  payloads and failure sets through the chunked pool path and the
  serial path.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass

import pytest

from repro.arch.specs import get_gpu
from repro.execution.engine import ExecutionConfig, run_units
from repro.execution.pool import (
    MAX_POOL_REBUILDS,
    active_pool_key,
    chunk_size,
    shutdown_pool,
)
from repro.execution.units import WorkUnit, sweep_units
from repro.faults.plan import aggressive_plan
from repro.kernels.suites import all_benchmarks, get_benchmark
from repro.telemetry.runtime import Telemetry


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _units(count_benchmarks: int = 3, seed: int | None = 11):
    gpu = get_gpu("GTX 460")
    return sweep_units(
        gpu, all_benchmarks()[:count_benchmarks], scale=0.25, seed=seed
    )


class TestChunking:
    def test_chunk_size_targets_four_chunks_per_worker(self):
        assert chunk_size(64, 4) == 4
        assert chunk_size(3, 4) == 1
        assert chunk_size(10_000, 2) == 64  # clamped
        assert chunk_size(0, 4) == 1

    def test_chunks_cover_all_pending_units(self):
        units = _units(4)
        result = run_units(units, ExecutionConfig(jobs=3))
        assert all(p is not None for p in result.payloads)
        assert result.stats.measured == len(units)


class TestPersistence:
    def test_pool_survives_across_run_units_calls(self):
        units = _units()
        run_units(units, ExecutionConfig(jobs=2))
        key = active_pool_key()
        assert key is not None and key[0] == 2
        run_units(units, ExecutionConfig(jobs=2))
        assert active_pool_key() == key

    def test_pool_rebuilds_for_different_units_or_jobs(self):
        units = _units()
        run_units(units, ExecutionConfig(jobs=2))
        key = active_pool_key()
        run_units(_units(seed=12), ExecutionConfig(jobs=2))
        rekeyed = active_pool_key()
        assert rekeyed is not None and rekeyed != key
        run_units(_units(seed=12), ExecutionConfig(jobs=3))
        assert active_pool_key()[0] == 3

    def test_shutdown_is_idempotent_and_recoverable(self):
        units = _units()
        run_units(units, ExecutionConfig(jobs=2))
        assert active_pool_key() is not None
        shutdown_pool()
        assert active_pool_key() is None
        shutdown_pool()  # second call is a no-op
        result = run_units(units, ExecutionConfig(jobs=2))
        assert all(p is not None for p in result.payloads)

    def test_pool_results_match_serial(self):
        units = _units()
        serial = run_units(units, ExecutionConfig(jobs=1))
        pooled = run_units(units, ExecutionConfig(jobs=4))
        assert json.dumps(serial.payloads, sort_keys=True) == json.dumps(
            pooled.payloads, sort_keys=True
        )


class TestAccounting:
    def test_state_loads_count_workers_not_units(self):
        """Regression guard for the initializer preload.

        Before the persistent pool, every submitted unit re-pickled the
        arch/kernel state into a worker.  Now the unit blob loads once
        per worker process, so the state-load gauge is bounded by the
        worker count no matter how many units run.
        """
        telemetry = Telemetry()
        units = _units(4)  # 28 units >> 2 workers
        run_units(units, ExecutionConfig(jobs=2, telemetry=telemetry))
        loads = telemetry.metrics.snapshot()["gauges"]["worker.state_loads"]
        assert 1.0 <= loads <= 2.0
        assert loads < len(units)

    def test_serial_run_sets_no_state_load_gauge(self):
        telemetry = Telemetry()
        run_units(_units(1), ExecutionConfig(jobs=1, telemetry=telemetry))
        assert (
            "worker.state_loads"
            not in telemetry.metrics.snapshot()["gauges"]
        )

    def test_counters_identical_serial_vs_pool_with_cache(self, tmp_path):
        """Worker-side cache writes must not skew the counters.

        Workers persist their own results (parallel durable writes) and
        the parent compensates ``cache.puts`` — so the counter section
        stays byte-identical to a serial run, where the parent writes.
        """
        units = _units()

        def counters(jobs, cache_dir):
            telemetry = Telemetry()
            run_units(
                units,
                ExecutionConfig(
                    jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
                ),
            )
            return telemetry.metrics.snapshot()["counters"]

        serial = counters(1, tmp_path / "serial")
        pooled = counters(3, tmp_path / "pooled")
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )
        assert serial["cache.puts"] == len(units)

    def test_worker_cache_trees_byte_identical(self, tmp_path):
        units = _units()
        run_units(units, ExecutionConfig(jobs=1, cache_dir=tmp_path / "a"))
        run_units(units, ExecutionConfig(jobs=4, cache_dir=tmp_path / "b"))

        def tree(root: pathlib.Path):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        serial_tree = tree(tmp_path / "a")
        pooled_tree = tree(tmp_path / "b")
        assert serial_tree == pooled_tree
        assert len(serial_tree) == len(units)

    def test_pool_serves_cache_hits_on_second_run(self, tmp_path):
        units = _units()
        run_units(units, ExecutionConfig(jobs=2, cache_dir=tmp_path))
        again = run_units(units, ExecutionConfig(jobs=2, cache_dir=tmp_path))
        assert again.stats.cache_hits == len(units)
        assert again.stats.measured == 0


class TestWorkerSeeding:
    """Workers vector-seed lazily: only chunks with fast units pay."""

    @pytest.fixture
    def seeding_pids(self, monkeypatch, tmp_path):
        """Pids of the processes that called ``prepare_units``.

        Workers fork after the patch, so they inherit it and append to
        a shared log the parent reads back.
        """
        import repro.execution.batch as batch

        log = tmp_path / "prepare_units.log"
        original = batch.prepare_units

        def recording(units):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(units)

        monkeypatch.setattr(batch, "prepare_units", recording)
        return lambda: log.read_text().split() if log.exists() else []

    def test_traced_pooled_run_seeds_no_worker(self, seeding_pids):
        units = _units(4)
        result = run_units(units, ExecutionConfig(jobs=2, telemetry=Telemetry()))
        assert result.stats.measured == len(units)
        assert seeding_pids() == []

    def test_untraced_pooled_run_seeds_once_per_worker(self, seeding_pids):
        units = _units(4)
        run_units(units, ExecutionConfig(jobs=2))
        run_units(units, ExecutionConfig(jobs=2))  # same pool, already seeded
        pids = seeding_pids()
        assert 1 <= len(pids) <= 2
        assert len(set(pids)) == len(pids)
        assert str(os.getpid()) not in pids


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoisonUnit(WorkUnit):
    """Kills its worker process (no exception to catch) — once, or always.

    With a ``marker`` path, the first execution drops the marker and
    calls ``os._exit``; every later execution succeeds.  Without one it
    kills the worker on every attempt.
    """

    marker: str = ""

    kind = "poison"

    def spec(self):
        return {"marker": self.marker}

    def execute(self):
        if not self.marker:
            os._exit(13)
        if not os.path.exists(self.marker):
            pathlib.Path(self.marker).write_text("crashed", encoding="utf-8")
            os._exit(13)
        return {"kind": self.kind, "recovered": True}


def _poison(marker: str = "") -> PoisonUnit:
    return PoisonUnit(
        gpu=get_gpu("GTX 480"),
        kernel=get_benchmark("nn"),
        seed=None,
        marker=marker,
    )


class TestCrashRecovery:
    def test_one_worker_crash_recovers_via_rebuild(self, tmp_path):
        marker = tmp_path / "crashed-once"
        units = _units(2) + [_poison(str(marker))]
        result = run_units(units, ExecutionConfig(jobs=2))
        assert marker.exists(), "the poison unit never crashed a worker"
        assert all(p is not None for p in result.payloads)
        assert result.payloads[-1] == {"kind": "poison", "recovered": True}
        assert result.failures == ()

    def test_repeated_crashes_become_permanent_failures(self):
        units = _units(2) + [_poison()]  # always crashes its worker
        result = run_units(
            units, ExecutionConfig(jobs=2, on_error="degrade")
        )
        assert result.payloads[-1] is None
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.error_type == "BrokenProcessPool"
        assert failure.permanent
        assert str(MAX_POOL_REBUILDS) in failure.message
        # Every healthy unit still completed despite the rebuild churn.
        assert all(p is not None for p in result.payloads[:-1])


class TestFaultPlanThroughPool:
    def test_chaos_campaign_identical_serial_vs_pool(self):
        """The PR 2 aggressive fault plan through the chunked pool path.

        Faulted units are never batchable, so this drives the scalar
        retry loop through persistent-pool chunks — payload holes,
        failure sets and all — and must match the serial run exactly.
        """
        gpu = get_gpu("GTX 460")
        units = sweep_units(
            gpu,
            all_benchmarks()[:3],
            scale=0.25,
            seed=99,
            faults=aggressive_plan(),
        )
        config = dict(retries=1, backoff_s=0.0, on_error="degrade")
        serial = run_units(units, ExecutionConfig(jobs=1, **config))
        pooled = run_units(units, ExecutionConfig(jobs=2, **config))
        assert json.dumps(serial.payloads, sort_keys=True) == json.dumps(
            pooled.payloads, sort_keys=True
        )
        assert [
            (f.index, f.error_type, f.permanent) for f in serial.failures
        ] == [(f.index, f.error_type, f.permanent) for f in pooled.failures]
