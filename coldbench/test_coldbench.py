"""Self-tests of the benchmark's layer tracing.

Run from the repository root (not part of the program's test suite)::

    python3 -m pytest coldbench/test_coldbench.py

They drive the real ``repro`` CLI through the traced launcher on inputs
chosen so that every layer has a tenth of a second or more of self time
on its home input: a pooled and a serial campaign with the event bus
on, three fleets and one paper figure.
"""

from __future__ import annotations

import json
import shutil

import pytest

import layers
import run
from layers import SLOW_FACTOR

#: Fleet shard results shared by the runs of the ``fleet-warm`` input,
#: so that those runs skip the shards and placement weighs more.
WARM_CACHE = run.WORK / "selftest-warm-cache"

INPUTS = {
    # Two cards, so the pool workers measure and profile for long enough.
    "campaign": (
        "campaign", "out", "--cache-dir", "cache", "--jobs", "2", "--live",
        "--gpu", "GTX 460", "--gpu", "GTX 680", "--seed", "3",
    ),
    # Serial and all four cards, for the layers of the campaign's own
    # process: with two busy workers on two cores, a busy-wait in the
    # parent would take CPU from the parent's other work and slow it too.
    "serial-campaign": (
        "campaign", "out", "--cache-dir", "cache", "--jobs", "1", "--live",
        "--seed", "3",
    ),
    "fleet": (
        "fleet", "out", "--cache-dir", "cache", "--devices", "256",
        "--jobs-total", "100000", "--seed", "3",
    ),
    # Shard time grows with the devices, not with the jobs.
    "fleet-shards": (
        "fleet", "out", "--cache-dir", "cache", "--devices", "512",
        "--jobs-total", "1000", "--seed", "3",
    ),
    # Placement grows with the devices too; with every shard a cache hit
    # it is a larger share of the run.
    "fleet-warm": (
        "fleet", "out", "--cache-dir", str(WARM_CACHE), "--devices", "2000",
        "--jobs-total", "1000", "--seed", "3",
    ),
    # A paper figure heavy in forward selection and least squares.
    "report": ("run", "fig9", "--seed", "3"),
}

#: Layers with less self time than this on an input are too close to
#: timer noise to count as untouched layers in a comparison.
MIN_SELF_S = 0.02

#: Least self time of a layer on its home input: below it, host noise
#: swamps a 1.5x change.
MIN_TARGET_S = 0.1

#: Clean and slowed runs per batch, and batches at most.  A layer whose
#: verdict fails after a batch gets another, judged on all its runs.
PAIRS = 7
BATCHES = 3


@pytest.fixture(scope="module", autouse=True)
def warm_fleet_cache():
    shutil.rmtree(WARM_CACHE, ignore_errors=True)
    traced(INPUTS["fleet-warm"])  # fills the cache
    yield
    shutil.rmtree(WARM_CACHE, ignore_errors=True)


def traced(args: tuple[str, ...], slow_layer: str | None = None) -> dict[str, float]:
    """Self time of every layer (``worker.`` prefixed in pool workers)."""
    run.precompile()
    run.WORK.mkdir(exist_ok=True)
    run_dir = run.WORK / f"selftest-{run.time.monotonic_ns()}"
    (run_dir / "trace").mkdir(parents=True)
    env = run.child_env()
    env[layers.TRACE_DIR_ENV] = str(run_dir / "trace")
    if slow_layer is not None:
        env[layers.SLOW_LAYER_ENV] = slow_layer
    argv = [run.sys.executable, str(run.BENCH / "child.py"),
            str(run_dir / "record.json"), "1", "--", *args]
    try:
        proc = run.spawn(argv, run_dir, env, run.time.monotonic() + 300)
        assert proc.code == 0, (run_dir / "stderr.txt").read_text()
        record = json.loads((run_dir / "record.json").read_text())
        workers = layers.merge_workers(str(run_dir / "trace"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = {}
    for layer in layers.LAYERS:
        out[layer] = record["self_s"][layer]
        out[f"worker.{layer}"] = workers["self_s"][layer]
        if layer not in layers.UNCOUNTED:  # counts that follow the clock
            out[f"{layer}.calls"] = record["calls"][layer]
            out[f"worker.{layer}.calls"] = workers["calls"][layer]
    return out


def _timed(sample: dict[str, float]) -> dict[str, float]:
    # The parent's pool wait is left out: a slower worker layer rightly
    # makes the parent wait longer.
    return {
        k: v for k, v in sample.items()
        if not k.endswith(".calls") and k.split("worker.")[-1] not in layers.UNCOUNTED
    }


def _cases():
    # Each layer is judged on the input where it does the most work.
    home = {
        "engine.simulate": "fleet",
        "instruments.measure": "campaign",
        "instruments.profile": "campaign",
        "execution.prepare": "fleet",
        "core.selection": "report",
        "core.regression": "report",
        # Pooled, slowing one worker's cache writes spaces out its fsyncs
        # and speeds up the other worker's.
        "execution.cache.put": "serial-campaign",
        "execution.journal.append": "serial-campaign",
        "telemetry.bus": "serial-campaign",
        "fleet.model": "fleet",
        "fleet.placement": "fleet-warm",
        "fleet.units": "fleet-shards",
        "engine.run_units": "serial-campaign",
    }
    assert set(home) == set(layers.LAYERS) - layers.UNCOUNTED
    return sorted(home.items())


@pytest.mark.parametrize("layer,workload", _cases())
def test_slowdown_shows_in_that_layer_only(layer, workload):
    clean, slowed = [], []
    for batch in range(BATCHES):
        for i in range(PAIRS):  # interleaved, so drift hits both sides alike
            for slow_layer in (None, layer) if i % 2 else (layer, None):
                sample = _timed(traced(INPUTS[workload], slow_layer=slow_layer))
                (clean if slow_layer is None else slowed).append(sample)
        problems = _slowdown_problems(layer, clean, slowed)
        print(f"{layer} after {len(clean)} pairs: {problems or 'ok'}")
        if not problems:
            break
    assert not problems, (layer, workload, problems)


def _slowdown_problems(layer: str, clean: list, slowed: list) -> list[str]:
    """What a 1.5x slowdown of ``layer`` in ``slowed`` failed to show."""
    # A slow host window only ever adds time, so each layer's fastest
    # reading is its steadiest one, and it only gets steadier with more
    # runs; a misattributed slowdown does not.
    base = {k: min(r[k] for r in clean) for k in clean[0]}
    slow = {k: min(r[k] for r in slowed) for k in clean[0]}
    mine = (layer, f"worker.{layer}")  # wherever the layer runs
    others = [k for k in base if k not in mine and base[k] >= MIN_SELF_S]
    # Divide out what is left of host drift: the untouched layers' ratio.
    host = sum(slow[k] for k in others) / sum(base[k] for k in others)
    target = sum(base[k] for k in mine)
    if target < MIN_TARGET_S:
        return [f"{target:.3f} s of self time is too little to judge"]
    problems = []
    ratio = sum(slow[k] for k in mine) / host / target
    if not 1.3 <= ratio <= 1.75:
        problems.append(f"ratio {ratio:.3f} (host {host:.3f}, self {target:.3f} s)")
    injected = (SLOW_FACTOR - 1) * target
    for k in others:
        # A leak would move the injected seconds into another layer.
        grew = slow[k] / host - base[k]
        if grew > 0.25 * base[k] + 0.3 * injected:
            problems.append(f"{k} grew {grew:.3f} s of {injected:.3f} s injected")
    return problems


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_call_counts_repeat(workload):
    first, second = traced(INPUTS[workload]), traced(INPUTS[workload])
    counts = [k for k in first if k.endswith(".calls")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_self_time_nesting():
    tracer = layers.Tracer(slow_layer="core.selection")
    inner = tracer.wrap("core.regression", lambda: _spin(0.02))
    outer = tracer.wrap("core.selection", lambda: (_spin(0.02), inner(), inner()))
    outer()
    assert tracer.calls["core.regression"] == 2
    assert tracer.calls["core.selection"] == 1
    assert 0.04 <= tracer.self_s["core.regression"] < 0.06
    assert 0.03 <= tracer.self_s["core.selection"] < 0.045  # 1.5 x 0.02


def _spin(seconds: float) -> None:
    until = run.time.perf_counter() + seconds
    while run.time.perf_counter() < until:
        pass
