"""Run sets of benchmark runs and judge their steadiness.

Usage (from the repository root)::

    python3 coldbench/sets.py

It makes two sets.  Each set makes ten runs of every workload in ``BENCHMARK.json``,
one seed per run (seeds 0, 1, 2, ... across the sets), in round-robin
order (campaign-live, report-paper, fleet-place, campaign-live, ...), so
a slow host window lands on every workload instead of on one workload's
whole set.  For every end-to-end metric it prints the median of the
per-run values, their quartiles and their spread, the distance between
the quartiles as a share of the median, against the bound in
``BENCHMARK.json``; for a second set, also the shift of its median
against the first.  The sets are steady if every run is correct, every
spread is within its bound and no shift, faster or slower, exceeds it;
``setup_s`` is held to this too.  ``host.probe_s`` is printed
beside each set: when two sets disagree and the probe moved with them,
the host changed, not the program.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Sets, and runs of each workload per set, as the acceptance rule takes them.
SETS = 2
RUNS = 10


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{argv} failed ({proc.returncode}):\n{proc.stderr}")
    return {
        "workload": workload,
        "seed": seed,
        "detail": json.loads(lines[-2])["detail"],
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets: list[list[dict[str, Any]]] = []
    for s in range(SETS):
        runs = []
        for rep in range(RUNS):
            seed = s * RUNS + rep
            for workload in workloads:
                run = one_run(spec["command"], workload, seed, spec["run_seconds"])
                result = run["result"]
                print(
                    f"set {s} seed {seed:3d} {workload:14s} correct="
                    f"{result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']} "
                    + " ".join(
                        f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
                    ),
                    flush=True,
                )
                runs.append(run)
        sets.append(runs)

    steady = True
    print(f"\n{'set':3s} {'workload':14s} {'metric':14s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s} {'shift':>7s}")
    first: dict[tuple[str, str], float] = {}
    for s, runs in enumerate(sets):
        for workload in workloads:
            mine = [r for r in runs if r["workload"] == workload]
            if not all(r["result"]["correct"] for r in mine):
                steady = False
                print(f"{s:<3d} {workload:14s} INCORRECT RUNS")
            for name in [*bounds, "host.probe_s"]:
                if name == "host.probe_s":
                    values = [r["detail"]["host.probe_s"]["median"] for r in mine]
                else:
                    values = [r["result"]["metrics"][name]["value"] for r in mine]
                if len(values) < 2:
                    continue
                median, q1, q3, spread = quartile_spread(values)
                bound = bounds.get(name)
                shift = ""
                if s == 0:
                    first[workload, name] = median
                else:
                    change = median / first[workload, name] - 1
                    shift = f"{change:+7.3f}"
                    if bound is not None and abs(change) > bound:
                        steady = False
                if bound is not None and spread > bound:
                    steady = False
                print(
                    f"{s:<3d} {workload:14s} {name:14s} {median:10.4f} {q1:10.4f} "
                    f"{q3:10.4f} {spread:7.3f} "
                    f"{'' if bound is None else format(bound, '6.2f'):>6s} {shift:>7s}"
                )
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
