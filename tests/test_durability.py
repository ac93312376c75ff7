"""Durable execution: journal, watchdog, breakers, kill-and-resume."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro.arch.specs import get_gpu
from repro.errors import CampaignInterrupted, ProfilerError, is_transient
from repro.execution import (
    BreakerBook,
    ExecutionConfig,
    RunJournal,
    WorkUnit,
    clear_shutdown,
    request_shutdown,
    run_units,
    shutdown_requested,
    sweep_units,
)
from repro.execution.engine import _retry_delay
from repro.execution.resilience import GracefulShutdown
from repro.kernels.suites import get_benchmark
from repro.telemetry.runtime import Telemetry

REPO = pathlib.Path(__file__).resolve().parent.parent
SEED = 7

#: Artifacts the resume acceptance criterion byte-compares.
COMPARED = ("campaign.json", "health.json", "dataset_gtx_460.json")


def _units(seed: int = 11):
    gpu = get_gpu("GTX 480")
    benchmarks = [get_benchmark(n) for n in ("nn", "hotspot", "lud")]
    return sweep_units(gpu, benchmarks, seed=seed)


# ----------------------------------------------------------------------
# run journal
# ----------------------------------------------------------------------


class TestRunJournal:
    def test_roundtrip_and_last_record_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record_unit("k1", "ok", attempts=2)
            journal.record_unit("k2", "fail", attempts=3,
                                error_type="UnitCrashError",
                                message="boom", permanent=False)
            journal.record_unit("k1", "quarantined", error_type="X",
                                message="breaker open", permanent=True)
            journal.record_breaker("GTX 480:nn:X", "open", 2)
            assert journal.appends == 4
        replay = RunJournal(path, resume=True)
        assert replay.resuming
        assert len(replay) == 2
        assert replay.lookup("k1")["status"] == "quarantined"
        assert replay.lookup("k2")["attempts"] == 3
        assert replay.lookup("missing") is None
        replay.close()

    def test_header_line_is_self_describing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal(path).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "repro.journal", "version": 1}

    def test_torn_trailing_line_is_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record_unit("k1", "ok", attempts=1)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"type": "unit", "key": "k2", "sta')
        replay = RunJournal(path, resume=True)
        assert len(replay) == 1
        assert replay.lookup("k2") is None
        replay.close()
        assert path.read_bytes() == intact  # torn bytes physically dropped

    def test_rejects_unknown_status(self, tmp_path):
        with RunJournal(tmp_path / "journal.jsonl") as journal:
            with pytest.raises(ValueError, match="unknown journal status"):
                journal.record_unit("k", "maybe")

    def test_non_journal_file_resumes_fresh(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"some": "other file"}\n', encoding="utf-8")
        journal = RunJournal(path, resume=True)
        assert not journal.resuming
        assert len(journal) == 0
        journal.close()

    def test_fresh_mode_truncates_prior_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record_unit("k1", "ok")
        RunJournal(path).close()  # a non-resume run starts over
        replay = RunJournal(path, resume=True)
        assert len(replay) == 0
        replay.close()


# ----------------------------------------------------------------------
# retry backoff: cap + deterministic jitter
# ----------------------------------------------------------------------


class TestRetryBackoff:
    def test_delay_is_deterministic(self):
        unit = _units()[0]
        a = _retry_delay(unit, 2, 0.05, 8.0)
        b = _retry_delay(unit, 2, 0.05, 8.0)
        assert a == b

    def test_jitter_varies_by_attempt_and_unit(self):
        units = _units()
        first = _retry_delay(units[0], 1, 1.0, 8.0)
        second = _retry_delay(units[0], 2, 1.0, 8.0)
        other = _retry_delay(units[1], 1, 1.0, 8.0)
        assert first != second
        assert first != other

    def test_exponential_growth_is_capped(self):
        unit = _units()[0]
        # Attempt 20 would be 0.05 * 2**19 ≈ 26ks uncapped.
        assert _retry_delay(unit, 20, 0.05, 8.0) <= 8.0
        # Jitter never lowers the delay below half the nominal value.
        assert _retry_delay(unit, 1, 1.0, 8.0) >= 0.5


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HangingUnit(WorkUnit):
    """Sleeps far past any watchdog budget — or only on the first try.

    With a ``marker`` path the first execution drops the marker and
    hangs; later attempts succeed (a wedge a retry clears).  Without
    one it hangs on every attempt.
    """

    marker: str = ""

    kind = "hanging"

    def spec(self):
        return {"marker": self.marker}

    def execute(self):
        if self.marker and os.path.exists(self.marker):
            return {"kind": self.kind, "recovered": True}
        if self.marker:
            pathlib.Path(self.marker).write_text("hung", encoding="utf-8")
        time.sleep(60.0)
        return {"kind": self.kind, "recovered": False}


def _hanging(marker: str = "") -> HangingUnit:
    return HangingUnit(
        gpu=get_gpu("GTX 480"),
        kernel=get_benchmark("nn"),
        seed=None,
        marker=marker,
    )


class TestWatchdog:
    def test_timeout_error_is_transient(self):
        from repro.errors import UnitTimeoutError

        assert is_transient(UnitTimeoutError("slow"))
        assert issubclass(UnitTimeoutError, TimeoutError)

    def test_always_hanging_unit_becomes_failure(self):
        telemetry = Telemetry()
        result = run_units(
            [_hanging()] + _units()[:2],
            ExecutionConfig(
                retries=1,
                backoff_s=0.0,
                unit_timeout_s=0.2,
                on_error="degrade",
                telemetry=telemetry,
            ),
        )
        # The hung unit is timed out, retried, and accounted — while
        # the rest of the batch completes normally.
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.error_type == "UnitTimeoutError"
        assert not failure.permanent
        assert failure.attempts == 2
        assert "wall-clock budget" in failure.message
        assert all(p is not None for p in result.payloads[1:])
        assert telemetry.metrics.snapshot()["counters"][
            "watchdog.timeouts"
        ] == 2

    def test_hang_once_unit_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "hung-once"
        result = run_units(
            [_hanging(str(marker))],
            ExecutionConfig(retries=2, backoff_s=0.0, unit_timeout_s=0.2),
        )
        assert marker.exists()
        assert result.payloads[0] == {"kind": "hanging", "recovered": True}
        assert result.stats.retries == 1

    def test_without_budget_nothing_is_watchdogged(self):
        # No unit_timeout_s: the engine never spawns watchdog threads,
        # and a plain batch completes exactly as before.
        result = run_units(_units()[:2], ExecutionConfig())
        assert all(p is not None for p in result.payloads)


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PermanentFailUnit(WorkUnit):
    """Always fails with a permanent (non-retryable) error."""

    label: str = "doomed"

    kind = "permfail"

    def spec(self):
        return {"label": self.label}

    def execute(self):
        raise ProfilerError(f"analysis failed for {self.label}")


def _doomed(label: str) -> PermanentFailUnit:
    return PermanentFailUnit(
        gpu=get_gpu("GTX 480"),
        kernel=get_benchmark("nn"),
        seed=None,
        label=label,
    )


class TestBreakerBook:
    def _unit(self):
        return _doomed("probe")

    def test_disabled_book_is_inert(self):
        book = BreakerBook(None)
        unit = self._unit()
        assert book.admit(unit) == (True, [])
        assert book.record(unit, ok=False, permanent_failure=True) == []
        assert book.admit(unit) == (True, [])

    def test_opens_at_threshold_and_quarantines(self):
        book = BreakerBook(2)
        unit = self._unit()
        assert book.record(unit, ok=False, permanent_failure=True,
                           error_type="ProfilerError") == []
        events = book.record(unit, ok=False, permanent_failure=True,
                             error_type="ProfilerError")
        assert events == [
            {"class": "GTX 480:nn:ProfilerError", "event": "open",
             "failures": 2}
        ]
        admitted, _ = book.admit(unit)
        assert not admitted

    def test_transient_failures_never_open(self):
        book = BreakerBook(1)
        unit = self._unit()
        for _ in range(5):
            assert book.record(unit, ok=False, permanent_failure=False) == []
        assert book.admit(unit)[0]

    def test_half_open_probe_closes_on_success(self):
        book = BreakerBook(1, cooldown=2)
        unit = self._unit()
        book.record(unit, ok=False, permanent_failure=True, error_type="X")
        assert book.admit(unit) == (False, [])  # absorbing
        admitted, events = book.admit(unit)  # cooldown reached: probe
        assert admitted
        assert [e["event"] for e in events] == ["half_open"]
        events = book.record(unit, ok=True, permanent_failure=False)
        assert [e["event"] for e in events] == ["close"]
        assert book.admit(unit) == (True, [])
        assert book.failures_for(unit) == 0

    def test_half_open_probe_reopens_on_permanent_failure(self):
        book = BreakerBook(1, cooldown=1)
        unit = self._unit()
        book.record(unit, ok=False, permanent_failure=True, error_type="X")
        admitted, events = book.admit(unit)  # immediate half-open probe
        assert admitted and events[0]["event"] == "half_open"
        events = book.record(unit, ok=False, permanent_failure=True,
                             error_type="X")
        assert [e["event"] for e in events] == ["open"]
        assert book.failures_for(unit) == 2
        # Cooldown 1: the reopened breaker half-opens again on the very
        # next admission — the probe cycle repeats.
        admitted, events = book.admit(unit)
        assert admitted and [e["event"] for e in events] == ["half_open"]

    def test_successes_never_materialize_state(self):
        book = BreakerBook(1)
        unit = self._unit()
        assert book.record(unit, ok=True, permanent_failure=False) == []
        assert book.label(unit).endswith(":unknown")


class TestBreakerIntegration:
    def _batch(self):
        # Six doomed nn units around healthy hotspot/lud units (no
        # healthy nn units — they would share the fault class): with
        # threshold 2 the breaker opens after the second permanent
        # failure and the remaining four nn units are quarantined.
        healthy = [u for u in _units() if u.kernel.name != "nn"]
        doomed = [_doomed(f"d{i}") for i in range(6)]
        return doomed[:2] + healthy[:4] + doomed[2:] + healthy[4:]

    def _config(self, tmp_path, name, jobs):
        return ExecutionConfig(
            jobs=jobs,
            cache_dir=tmp_path / name,
            retries=1,
            backoff_s=0.0,
            breaker_threshold=2,
            on_error="degrade",
        )

    def test_quarantine_after_threshold(self, tmp_path):
        result = run_units(
            self._batch(), self._config(tmp_path, "serial", 1)
        )
        assert result.stats.failed == 2
        assert result.stats.quarantined == 4
        quarantined = [f for f in result.failures if f.quarantined]
        assert len(quarantined) == 4
        assert all(f.error_type == "CircuitBreakerOpen" for f in quarantined)
        assert all(f.attempts == 0 for f in quarantined)
        assert all("GTX 480:nn:ProfilerError" in f.message for f in quarantined)
        assert result.stats.breaker_events == [
            {"class": "GTX 480:nn:ProfilerError", "event": "open",
             "failures": 2}
        ]
        # Healthy units are untouched by the nn-class breaker.
        healthy = sum(p is not None for p in result.payloads)
        assert healthy == result.stats.total_units - 6

    def test_serial_and_pool_quarantine_identically(self, tmp_path):
        batch = self._batch()
        serial = run_units(batch, self._config(tmp_path, "serial", 1))
        pooled = run_units(batch, self._config(tmp_path, "pooled", 3))
        assert serial.payloads == pooled.payloads
        assert serial.failures == pooled.failures
        assert serial.stats.quarantined == pooled.stats.quarantined == 4
        assert serial.stats.breaker_events == pooled.stats.breaker_events
        # Cache trees match byte for byte: results a worker computed
        # speculatively for quarantined units are discarded, so the
        # pool never caches more than a serial run would.
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        serial_files = sorted(
            p.relative_to(serial_dir) for p in serial_dir.rglob("*.json")
        )
        pooled_files = sorted(
            p.relative_to(pooled_dir) for p in pooled_dir.rglob("*.json")
        )
        assert serial_files == pooled_files
        for rel in serial_files:
            assert (serial_dir / rel).read_bytes() == (
                pooled_dir / rel
            ).read_bytes()

    def test_journal_replay_reproduces_quarantine(self, tmp_path):
        batch = self._batch()
        config = self._config(tmp_path, "cache", 1)
        journal = RunJournal(tmp_path / "journal.jsonl")
        first = run_units(
            batch, dataclasses.replace(config, journal=journal)
        )
        journal.close()
        replayed = RunJournal(tmp_path / "journal.jsonl", resume=True)
        assert replayed.resuming
        second = run_units(
            batch, dataclasses.replace(config, journal=replayed)
        )
        replayed.close()
        assert second.payloads == first.payloads
        assert second.failures == first.failures
        assert second.stats.measured == first.stats.measured
        assert second.stats.quarantined == first.stats.quarantined
        assert second.attempts == first.attempts


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------


class TestGracefulShutdown:
    def test_requested_flag_aborts_run_units(self):
        request_shutdown()
        try:
            with pytest.raises(CampaignInterrupted):
                run_units(_units()[:2], ExecutionConfig())
        finally:
            clear_shutdown()

    def test_signal_sets_flag_and_context_restores(self):
        with GracefulShutdown():
            assert not shutdown_requested()
            os.kill(os.getpid(), signal.SIGTERM)
            # Delivered synchronously to this (main) thread.
            assert shutdown_requested()
        assert not shutdown_requested()

    def test_second_signal_raises_keyboard_interrupt(self):
        with GracefulShutdown():
            os.kill(os.getpid(), signal.SIGTERM)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        assert not shutdown_requested()


# ----------------------------------------------------------------------
# kill-and-resume acceptance (subprocess campaigns)
# ----------------------------------------------------------------------


def _campaign(directory, *extra, capture=True):
    # capture=False detaches stdio: a SIGKILLed parent leaves orphaned
    # pool workers holding inherited pipe ends, which would wedge
    # ``communicate`` until they exit.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    stream = subprocess.PIPE if capture else subprocess.DEVNULL
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "chaos", str(directory),
         "--seed", str(SEED), *extra],
        env=env,
        stdout=stream,
        stderr=stream,
        cwd=str(REPO),
    )


def _await_journal(directory, minimum=12, timeout=120.0):
    """Block until the campaign journaled at least ``minimum`` units."""
    path = pathlib.Path(directory) / "journal.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            count = sum(
                1 for line in path.read_text().splitlines()
                if '"unit"' in line
            )
        except OSError:
            count = 0
        if count >= minimum:
            return count
        time.sleep(0.02)
    raise AssertionError(f"campaign never journaled {minimum} units")


def _child_pids(pid):
    """Pids of ``pid``'s live child processes (Linux ``/proc``)."""
    path = pathlib.Path(f"/proc/{pid}/task/{pid}/children")
    if not path.exists():
        pytest.skip("needs /proc/<pid>/task/<pid>/children")
    return [int(child) for child in path.read_text().split()]


def _alive(pid):
    """Whether ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _await_exit(pids, timeout=5.0):
    """The subset of ``pids`` still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if _alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _alive(pid)]
    return alive


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted chaos campaign the resumed runs must match."""
    directory = tmp_path_factory.mktemp("durability") / "reference"
    proc = _campaign(directory)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()
    return directory


class TestKillAndResume:
    def _assert_identical(self, reference, directory):
        for name in COMPARED:
            left = (reference / name).read_bytes()
            right = (pathlib.Path(directory) / name).read_bytes()
            assert left == right, f"{name} differs from uninterrupted run"

    def test_sigterm_then_resume_is_byte_identical(self, reference, tmp_path):
        directory = tmp_path / "sigterm"
        proc = _campaign(directory)
        _await_journal(directory)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 75, (out.decode(), err.decode())
        assert b"--resume" in err
        assert not (directory / "campaign.json").exists()
        resumed = _campaign(directory, "--resume")
        out, err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, err.decode()
        self._assert_identical(reference, directory)

    def test_sigkill_then_resume_is_byte_identical_jobs4(
        self, reference, tmp_path
    ):
        directory = tmp_path / "sigkill"
        proc = _campaign(directory, "--jobs", "4", capture=False)
        _await_journal(directory)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=120)
        assert proc.returncode == -signal.SIGKILL
        resumed = _campaign(directory, "--resume", "--jobs", "4")
        out, err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, err.decode()
        self._assert_identical(reference, directory)

    def test_sigkill_jobs4_takes_its_pool_workers_down(self, tmp_path):
        directory = tmp_path / "orphans"
        proc = _campaign(directory, "--jobs", "4", capture=False)
        _await_journal(directory)
        workers = _child_pids(proc.pid)
        assert len(workers) == 4
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=120)
        assert _await_exit(workers) == []

    def test_resume_does_not_reexecute_settled_units(self, reference):
        # Resuming a *complete* journal replays every unit: nothing is
        # measured anew, yet the health account re-earns the original
        # numbers (journaled attempts, not cache hits).
        journal_before = (reference / "journal.jsonl").read_bytes()
        health_before = (reference / "health.json").read_bytes()
        resumed = _campaign(reference, "--resume")
        out, err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, err.decode()
        assert (reference / "health.json").read_bytes() == health_before
        assert (reference / "journal.jsonl").read_bytes() == journal_before
