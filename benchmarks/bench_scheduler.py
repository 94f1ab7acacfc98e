"""Benchmark (extension): measurement scheduler — pool reuse & planner.

Two measurements, merged into ``BENCH_engine.json`` under the
``"scheduler"`` key:

* **Pool reuse.**  A multi-sweep session (several ``map_sweep`` calls
  of small analysis tasks — the production-screening shape: many quick
  fan-outs, not one monolith) run twice: once with a fresh
  :class:`~repro.engine.WorkerPool` opened and closed per call, and
  once on a persistent pool spawned exactly once.  The
  acceptance bar is >= 2x for the persistent session — per-call pool
  spawn is pure overhead once the pool outlives the call.
* **Planned heterogeneous screen.**  A mixed-configuration device lot
  (two record lengths) measured per device versus one
  ``MeasurementScheduler.run`` that plans the lot into two compatible
  sub-batches.  Results must be bit-identical; the planned run shares
  one digitize + batched Welch pass per sub-batch.
"""

import json
import os
import pathlib
import time

from conftest import envinfo, run_once

from repro.dsp.psd import welch
from repro.engine import (
    MeasurementEngine,
    MeasurementScheduler,
    MeasurementTask,
    WorkerPool,
)
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.reporting.tables import render_table
from repro.signals.random import make_rng, spawn_rngs

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_SWEEPS = 10         # map_sweep calls per session
TASKS_PER_SWEEP = 4   # tasks per call
SWEEP_SAMPLES = 10_000  # per-task record length (small, sweep-shaped)

#: Acceptance floor for the pool-reuse speedup.  2x is the bar the
#: scheduler PR claims (and dedicated hosts measure ~3-4.5x run to run); shared CI
#: runners can override via the environment so a noisy neighbor cannot
#: fail an unrelated build on wall clock alone.
MIN_POOL_SPEEDUP = float(os.environ.get("BENCH_SCHEDULER_MIN_SPEEDUP", "2.0"))

MIXED_LOT = [(120_000, 3000)] * 4 + [(60_000, 3000)] * 4


def analyze_record(task, rng):
    """Sweep worker: one small Welch analysis of a fresh record."""
    n_samples, nperseg = task
    record = rng.normal(size=n_samples)
    return float(welch(record, nperseg=nperseg, sample_rate=10_000.0).psd.sum())


def session_per_call_pools(seed):
    """The pre-scheduler behavior: one fresh pool per sweep call."""
    out = []
    gen = make_rng(seed)
    for _ in range(N_SWEEPS):
        rngs = spawn_rngs(gen, TASKS_PER_SWEEP)
        with WorkerPool() as pool:
            engine = MeasurementEngine(backend="process", pool=pool)
            out.append(
                engine.map_sweep(
                    analyze_record,
                    [(SWEEP_SAMPLES, 2000)] * TASKS_PER_SWEEP,
                    rngs=rngs,
                )
            )
    return out


def session_persistent_pool(seed, engine):
    """The same session on one persistent worker pool."""
    out = []
    gen = make_rng(seed)
    for _ in range(N_SWEEPS):
        rngs = spawn_rngs(gen, TASKS_PER_SWEEP)
        out.append(
            engine.map_sweep(
                analyze_record,
                [(SWEEP_SAMPLES, 2000)] * TASKS_PER_SWEEP,
                rngs=rngs,
            )
        )
    return out


def _mixed_tasks(seed):
    sims = [
        MatlabSimulation(MatlabSimConfig(n_samples=n, nperseg=p))
        for n, p in MIXED_LOT
    ]
    rngs = spawn_rngs(make_rng(seed), len(sims))
    return [
        MeasurementTask(sim, sim.make_estimator(), rng)
        for sim, rng in zip(sims, rngs)
    ]


def screen_per_device(seed):
    engine = MeasurementEngine()
    return [
        engine.measure(t.source, t.estimator, rng=t.rng).noise_figure_db
        for t in _mixed_tasks(seed)
    ]


def screen_planned(seed):
    return [
        r.noise_figure_db
        for r in MeasurementScheduler().run(_mixed_tasks(seed))
    ]


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _best_of(n, fn, *args):
    """Best-of-n wall clock: robust to load spikes on shared CI hosts."""
    best = None
    result = None
    for _ in range(n):
        result, seconds = _time(fn, *args)
        best = seconds if best is None else min(best, seconds)
    return result, best


def test_scheduler(benchmark, emit):
    seed = 2005

    # --- pool reuse across a multi-sweep session --------------------
    # Warm one throwaway pool first so OS-level first-fork costs (page
    # cache, COW setup) don't bias whichever session runs first.
    with WorkerPool(max_workers=1) as warm:
        warm.map(abs, [-1])

    per_call, t_per_call = _best_of(2, session_per_call_pools, seed)
    with MeasurementEngine(backend="process") as engine:
        persistent = run_once(
            benchmark, session_persistent_pool, seed, engine
        )
        _, t_persistent = _best_of(2, session_persistent_pool, seed, engine)
        spawns = engine.worker_pool.spawn_count
    assert persistent == per_call  # same generators -> identical sweeps
    pool_speedup = t_per_call / t_persistent

    # --- planned heterogeneous screen vs per-device measurement -----
    per_device, t_per_device = _best_of(2, screen_per_device, seed)
    planned, t_planned = _best_of(2, screen_planned, seed)
    nf_diff = max(abs(a - b) for a, b in zip(per_device, planned))
    assert nf_diff == 0.0  # planner contract: bit-identical
    plan = MeasurementScheduler().plan(_mixed_tasks(seed))
    screen_speedup = t_per_device / t_planned

    rows = [
        [
            "per-call pools",
            t_per_call,
            N_SWEEPS,
            f"{N_SWEEPS} spawns",
        ],
        [
            "persistent pool",
            t_persistent,
            N_SWEEPS,
            f"{spawns} spawn ({pool_speedup:.1f}x)",
        ],
        [
            "per-device screen",
            t_per_device,
            len(MIXED_LOT),
            "-",
        ],
        [
            "planned screen",
            t_planned,
            len(MIXED_LOT),
            f"{plan.n_groups} groups ({screen_speedup:.2f}x)",
        ],
    ]
    emit(
        "scheduler",
        render_table(
            ["mode", "seconds", "calls/devices", "pool spawns / groups"],
            rows,
            title=(
                f"Scheduler - {N_SWEEPS}x{TASKS_PER_SWEEP}-task sweep "
                f"session & {len(MIXED_LOT)}-device mixed-config screen, "
                f"{os.cpu_count()} CPU(s)"
            ),
        ),
    )

    bench_path = REPO_ROOT / "BENCH_engine.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}  # self-heal a missing or truncated file
    payload["scheduler"] = {
        "n_cpus": os.cpu_count(),
        "env": envinfo(),
        "pool_reuse": {
            "n_sweeps": N_SWEEPS,
            "tasks_per_sweep": TASKS_PER_SWEEP,
            "per_call_pool_seconds": round(t_per_call, 4),
            "persistent_pool_seconds": round(t_persistent, 4),
            "persistent_pool_spawns": spawns,
            "speedup": round(pool_speedup, 2),
        },
        "planned_screen": {
            "n_devices": len(MIXED_LOT),
            "n_plan_groups": plan.n_groups,
            "per_device_seconds": round(t_per_device, 4),
            "planned_seconds": round(t_planned, 4),
            "speedup": round(screen_speedup, 2),
            "nf_max_abs_diff_db": nf_diff,
        },
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance: reusing the pool must amortize spawn overhead across
    # the session (>= 2x on a quiet host; floor overridable for noisy
    # shared runners).
    assert spawns == 1
    assert pool_speedup >= MIN_POOL_SPEEDUP
