"""Cold-process benchmark of the ``repro`` CLI.

Usage (from the repository root)::

    python3 coldbench/run.py --workload campaign-live --seed 0 --seconds 40 --trace 0
    python3 coldbench/run.py --pin        # re-pin the artifact digests

Every timed run is a fresh ``python -m repro ...`` process with fresh
output and cache directories, timed from outside: wall time from spawn
to reap, CPU time and peak RSS of the whole process tree from
``wait4``, and set-up time from spawn until the CLI finished parsing its
arguments.  A fixed pure-Python probe runs in its own process next to
every timed run, so a slow host window shows in ``host.probe_s``.  Each
run's artifacts are checked against the digest pinned for its seed, and
its own health records are checked for losses.  With ``--trace 1`` the
benchmark makes one untraced run, then traced runs, at least two, and
reports per-layer self time from the traced ones (see ``layers.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines above it give every
metric's quartiles and sample count.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".coldbench"
PINS = BENCH / "pins.json"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402

#: Program seeds the benchmark seed maps onto; each has pinned digests.
PROGRAM_SEEDS = tuple(range(1, 11))

#: No run starts once the benchmark has been up this long, less twice
#: the longest round so far; a run still going at the deadline is killed
#: and counted failed.
BUDGET_S = 165.0
DEADLINE_S = 172.0

#: Campaign workers; the default host has two cores.
JOBS = 2

#: Good traced runs a ``--trace 1`` run needs, so that their call
#: counts can be compared; it runs past ``--seconds`` to get them.
MIN_TRACED_RUNS = 2

#: Set-up-only processes per round, next to the timed run, so that
#: ``setup_s`` is a median over several set-ups even when a workload's
#: rounds are few.
SETUPS_PER_ROUND = 2

#: The host-drift probe: a fixed pure-Python loop, about 0.5 s here.
PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(3_000_000):\n"
    "    x = (x * 31 + i) & 0xFFFF\n"
    "print(time.perf_counter() - t, x)\n"
)
#: The loop's result, checked so the probe cannot silently do less work.
PROBE_RESULT = "9056"


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _read_json(path: pathlib.Path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _jsonl(path: pathlib.Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _journal_problems(path: pathlib.Path, units: int) -> list[str]:
    records = [r for r in _jsonl(path) if r.get("type") == "unit"]
    bad = [r for r in records if r["status"] != "ok"]
    problems = []
    if len(records) != units:
        problems.append(f"journal has {len(records)} unit records, want {units}")
    if bad:
        problems.append(f"journal has {len(bad)} units not ok")
    return problems


def _cache_entries(path: pathlib.Path) -> int:
    return sum(1 for p in path.rglob("*.json") if p.is_file())


CAMPAIGN_UNITS = 4 * 114
FLEET_SHARDS = -(-1000 // 64)


def _check_campaign(out: pathlib.Path, cache: pathlib.Path) -> list[str]:
    problems = []
    totals = _read_json(out / "health.json")["totals"]
    want = {
        "attempted": CAMPAIGN_UNITS,
        "measured": CAMPAIGN_UNITS,
        "cache_hits": 0,
        "failed": 0,
        "quarantined": 0,
        "degraded": 0,
        "retried": 0,
        "pool_rebuilds": 0,
    }
    for key, value in want.items():
        if totals.get(key) != value:
            problems.append(f"health {key}={totals.get(key)}, want {value}")
    problems += _journal_problems(out / "journal.jsonl", CAMPAIGN_UNITS)
    events = _jsonl(out / "events.ndjson")
    summary = events[-1]
    if summary["kind"] != "summary":
        problems.append("event stream does not end with a summary")
    elif summary["data"]["dropped"] or summary["data"]["errors"]:
        problems.append(f"event stream lost events: {summary['data']}")
    unit_events = sum(1 for e in events if e["kind"] == "unit")
    if unit_events != CAMPAIGN_UNITS:
        problems.append(f"event stream has {unit_events} unit events")
    if _cache_entries(cache) != CAMPAIGN_UNITS:
        problems.append(f"cache holds {_cache_entries(cache)} entries")
    return problems


def _check_report(out: pathlib.Path, cache: pathlib.Path) -> list[str]:
    count = sum(1 for p in out.iterdir() if p.suffix == ".txt")
    return [] if count == 20 else [f"report wrote {count} files, want 20"]


def _check_fleet(out: pathlib.Path, cache: pathlib.Path) -> list[str]:
    problems = _journal_problems(out / "journal.jsonl", FLEET_SHARDS)
    jobs = _read_json(out / "fleet.json")["jobs"]["total"]
    if jobs != 100_000:
        problems.append(f"fleet placed {jobs} jobs, want 100000")
    if _cache_entries(cache) != FLEET_SHARDS:
        problems.append(f"cache holds {_cache_entries(cache)} entries")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI arguments after ``repro``; ``{seed}`` is the program seed.
    args: tuple[str, ...]
    #: Artifacts whose bytes the digest covers (timing-free files only).
    artifacts: Callable[[pathlib.Path], list[pathlib.Path]]
    check: Callable[[pathlib.Path, pathlib.Path], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-live",
            ("campaign", "out", "--cache-dir", "cache", "--jobs", str(JOBS),
             "--live", "--seed", "{seed}"),
            lambda out: [p for p in out.glob("*.json") if p.name != "metrics.json"],
            _check_campaign,
        ),
        Workload(
            "report-paper",
            ("report", "out", "--no-extensions", "--seed", "{seed}"),
            lambda out: list(out.iterdir()),
            _check_report,
        ),
        Workload(
            "fleet-place",
            ("fleet", "out", "--cache-dir", "cache", "--seed", "{seed}"),
            lambda out: [out / "fleet.json"],
            _check_fleet,
        ),
    )
}


def digest(workload: Workload, out: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workload.artifacts(out)):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(layers.SLOW_LAYER_ENV, None)
    env.update(
        PYTHONPATH=str(SRC),
        # One BLAS thread per process: the default burns the second core
        # on a 2-core host and couples the run to its neighbours.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    started: float
    stdout: str


def spawn(
    argv: list[str], cwd: pathlib.Path, env: dict[str, str], deadline: float
) -> Proc:
    """Run one process to completion; time it and its reaped descendants."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            # wait4 reports the child together with every descendant it
            # reaped: the pool workers' CPU and the largest RSS of the tree.
            _, status, usage = _wait4(proc.pid, deadline)
            wall = time.monotonic() - started
        finally:
            _end_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        started=started,
        stdout=(cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
    )


def _end_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        until = time.monotonic() + 10
        while time.monotonic() < until:  # strays are reaped by init
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def _wait4(pid: int, deadline: float):
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            return reaped, status, usage
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            return os.wait4(pid, 0)
        time.sleep(0.002)


def probe(env: dict[str, str], cwd: pathlib.Path, deadline: float) -> float | None:
    proc = spawn([sys.executable, "-c", PROBE], cwd, env, deadline)
    fields = proc.stdout.split()
    if proc.code != 0 or len(fields) != 2 or fields[1] != PROBE_RESULT:
        return None
    return float(fields[0])


@dataclass
class Run:
    ok: bool
    problems: list[str]
    proc: Proc | None = None
    setup_s: float = 0.0
    digest: str = ""
    record: dict[str, Any] = field(default_factory=dict)


def run_once(
    workload: Workload,
    program_seed: int,
    mode: str,
    env: dict[str, str],
    pinned: str | None,
    deadline: float,
) -> Run:
    """One fresh process of the workload, checked against its pinned digest.

    ``mode`` is the launcher's: ``"0"`` untraced, ``"1"`` traced, or
    ``"setup"`` to exit once the arguments parse (set-up time only, no
    outputs to check).
    """
    run_dir = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    record_path = run_dir / "record.json"
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    child_vars = dict(env)
    if mode == "1":
        child_vars[layers.TRACE_DIR_ENV] = str(trace_dir)
    args = [a.format(seed=program_seed) for a in workload.args]
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path), mode,
            "--", *args]
    run = Run(ok=False, problems=[])
    try:
        run.proc = proc = spawn(argv, run_dir, child_vars, deadline)
        if proc.code != 0:
            run.problems.append(f"exit code {proc.code}")
            return run
        run.record = _read_json(record_path)
        run.setup_s = run.record["parsed_at"] - proc.started
        if mode == "setup":
            return run
        out, cache = run_dir / "out", run_dir / "cache"
        run.problems += workload.check(out, cache)
        run.digest = digest(workload, out)
        if pinned is not None and run.digest != pinned:
            run.problems.append(f"digest {run.digest[:16]} != pinned {pinned[:16]}")
        if mode == "1":
            run.record["workers"] = layers.merge_workers(str(trace_dir))
    except (OSError, KeyError, ValueError) as exc:
        run.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        run.ok = not run.problems
    return run


# ----------------------------------------------------------------------
# statistics and metrics
# ----------------------------------------------------------------------


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count (quartiles as ``statistics.quantiles``)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(run: Run, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run (the parent's timeline adds up)."""
    rec, workers = run.record, run.record["workers"]
    wall = run.proc.wall_s
    metrics: dict[str, tuple[float, str]] = {"cli.startup.self_s": (run.setup_s, "s")}
    for layer in layers.LAYERS:
        if layer in layers.UNCOUNTED:
            metrics[f"{layer}_s"] = (rec["self_s"][layer], "s")
        else:
            metrics[f"{layer}.self_s"] = (rec["self_s"][layer], "s")
            metrics[f"{layer}.calls"] = (rec["calls"][layer], "count")
    covered = run.setup_s + sum(rec["self_s"].values())
    metrics["unattributed_s"] = (wall - covered, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    metrics["execution.pool.worker_cpu_s"] = (rec["children_cpu_s"], "s")
    for layer in layers.WORKER_LAYERS:
        metrics[f"worker.{layer}.self_s"] = (workers["self_s"][layer], "s")
        metrics[f"worker.{layer}.calls"] = (workers["calls"][layer], "count")
    return metrics


def load_pins() -> dict[str, dict[str, str]]:
    return _read_json(PINS)["digests"] if PINS.exists() else {}


def precompile() -> None:
    """Byte-compile the program and the launcher once, before any timing."""
    for directory in (SRC, BENCH):
        if not compileall.compile_dir(str(directory), quiet=1, workers=1):
            raise SystemExit(f"byte-compiling {directory} failed")


def measure(workload: Workload, seed: int, seconds: int, traced: bool) -> dict:
    began = time.monotonic()
    deadline = began + DEADLINE_S
    precompile()
    WORK.mkdir(exist_ok=True)
    env = child_env()
    program_seed = PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]
    pinned = load_pins().get(workload.name, {}).get(str(program_seed))
    runs: list[Run] = []
    traced_runs: list[Run] = []
    probes: list[float] = []
    setups: list[float] = []
    problems: list[str] = []
    if pinned is None:
        problems.append(f"no pinned digest for {workload.name} seed {program_seed}")
    start = time.monotonic()
    rounds: list[float] = []
    while True:
        t0 = time.monotonic()
        value = probe(env, WORK, deadline)
        if value is None:
            problems.append("host probe failed")
        else:
            probes.append(value)
        for _ in range(0 if traced else SETUPS_PER_ROUND):
            setup = run_once(workload, program_seed, "setup", env, None, deadline)
            if setup.ok:
                setups.append(setup.setup_s)
            else:
                problems.append(f"set-up-only process failed: {setup.problems}")
        if not (traced and runs):  # traced, one untraced run is the reference
            runs.append(run_once(workload, program_seed, "0", env, pinned, deadline))
        if traced:
            traced_runs.append(
                run_once(workload, program_seed, "1", env, pinned, deadline)
            )
        rounds.append(time.monotonic() - t0)
        now = time.monotonic()
        enough = not traced or sum(r.ok for r in traced_runs) >= MIN_TRACED_RUNS
        if (
            enough and now - start + statistics.median(rounds) / 2 >= seconds
        ) or now - began + 2 * max(rounds) > BUDGET_S:
            break
    every = runs + traced_runs
    good = [r for r in runs if r.ok]
    detail: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "program_seed": program_seed,
        "host.probe_s": summary(probes) if probes else None,
        "digests": sorted({r.digest for r in every if r.digest}),
    }
    metrics: dict[str, tuple[float, str]] = {}
    if good:
        samples = {
            "wall_s": ([r.proc.wall_s for r in good], "s"),
            "cpu_s": ([r.proc.cpu_s for r in good], "s"),
            "setup_s": ([r.setup_s for r in good] + setups, "s"),
            "peak_rss_mb": ([r.proc.rss_mb for r in good], "MB"),
        }
        detail["end_to_end"] = {k: summary(v) for k, (v, _) in samples.items()}
        if not traced:
            metrics = {k: (statistics.median(v), u) for k, (v, u) in samples.items()}
    good_traced = [r for r in traced_runs if r.ok]
    if traced and len(good_traced) < MIN_TRACED_RUNS:
        problems.append(
            f"{len(good_traced)} good traced runs, want {MIN_TRACED_RUNS} "
            "to compare their call counts"
        )
    elif traced and good:
        counts = {
            json.dumps([
                {k: v for k, v in calls.items() if k not in layers.UNCOUNTED}
                for calls in (r.record["calls"], r.record["workers"]["calls"])
            ])
            for r in good_traced
        }
        if len(counts) != 1:
            problems.append("layer call counts differ between traced runs")
        by_wall = sorted(good_traced, key=lambda r: r.proc.wall_s)
        chosen = by_wall[(len(by_wall) - 1) // 2]
        untraced_wall = statistics.median(r.proc.wall_s for r in good)
        metrics = layer_metrics(chosen, untraced_wall)
    # A problem of the whole set (no pin, a failed probe, call counts
    # that do not repeat) counts as one more failed attempt.
    failed = sum(1 for r in every if not r.ok) + (1 if problems else 0)
    problems += [p for r in every for p in r.problems]
    return {
        "detail": detail,
        "problems": problems,
        "result": {
            "correct": not problems and bool(metrics),
            "attempted": len(every) + (1 if problems else 0),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_report(outcome: dict) -> None:
    detail = outcome["detail"]
    print(
        f"workload {detail['workload']}  seed {detail['seed']} "
        f"(program seed {detail['program_seed']})"
    )
    rows = dict(detail.get("end_to_end", {}))
    if detail["host.probe_s"] is not None:
        rows["host.probe_s"] = detail["host.probe_s"]
    print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'n':>3s}")
    for name, s in rows.items():
        print(
            f"  {name:16s} {s['median']:10.4f} {s['q1']:10.4f} "
            f"{s['q3']:10.4f} {s['n']:3d}"
        )
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(outcome["result"]))


def pin(seeds: list[int]) -> None:
    """Run every workload once per program seed and record its digest."""
    precompile()
    WORK.mkdir(exist_ok=True)
    env = child_env()
    document = _read_json(PINS) if PINS.exists() else {"digests": {}}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            run = run_once(workload, seed, "0", env, None, time.monotonic() + 600)
            if not run.ok:
                raise SystemExit(f"{name} seed {seed}: {run.problems}")
            document["digests"].setdefault(name, {})[str(seed)] = run.digest
            print(f"{name} seed {seed}: {run.digest}", flush=True)
    PINS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="run every workload once per program seed and write pins.json",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        pin(list(PROGRAM_SEEDS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
