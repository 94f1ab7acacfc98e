"""Benchmark (extension): fault-tolerance machinery overhead + chaos smoke.

Two measurements, merged into ``BENCH_engine.json`` under the
``"faults"`` key:

* **Fault-free overhead.**  The same planned production screen run
  plain and with the full hardening stack engaged (retry policy,
  injection hooks consulted per task and per store write, execution
  report assembled).  With no injector installed every hook is a
  single ``None`` check, so the hardened screen must cost within
  ``BENCH_FAULTS_MAX_OVERHEAD`` (default 5%) of the plain one —
  best-of-N timing on both sides to keep shared-runner noise out of
  the ratio.
* **Chaos smoke.**  The screen run under the ``transient`` fault plan
  (injected worker crashes, task exceptions, store truncation/
  corruption) plus a resumed pass over the damaged store.  Acceptance
  bar: both faulted outcomes bit-identical to the clean reference and
  at least one fault actually injected.
"""

import json
import os
import pathlib
import shutil
import tempfile
import time

from conftest import envinfo, run_once

from repro.engine import MeasurementEngine, ResultStore, RetryPolicy
from repro.experiments.production import run_production
from repro.faults import inject, resolve_plan
from repro.reporting.tables import render_table

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_DEVICES = 8
N_SAMPLES = 2**16
NPERSEG = 4096
SEED = 2005
BEST_OF = 5

#: Hardened-vs-plain overhead ceiling on a clean (fault-free) screen;
#: shared CI runners can relax via environment.
MAX_OVERHEAD = float(os.environ.get("BENCH_FAULTS_MAX_OVERHEAD", "0.05"))

LOT = dict(
    n_devices=N_DEVICES,
    n_samples=N_SAMPLES,
    nperseg=NPERSEG,
    seed=SEED,
)


def _best_of(fn, n=BEST_OF):
    best = None
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_faults(benchmark, emit):
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_faults_"))
    try:
        # --- fault-free overhead -------------------------------------
        plain, t_plain = _best_of(
            lambda: run_production(**LOT)
        )

        def hardened():
            with MeasurementEngine(retry=RetryPolicy()) as engine:
                return run_production(**LOT, engine=engine, report=True)

        guarded = run_once(benchmark, hardened)
        guarded, t_guarded = _best_of(hardened)
        overhead = t_guarded / t_plain - 1.0
        clean_identical = guarded.measured_nf_db == plain.measured_nf_db
        assert guarded.run_report.ok
        assert sum(guarded.run_report.injections.values()) == 0

        # --- chaos smoke ---------------------------------------------
        plan = resolve_plan("transient", seed=3)
        store = ResultStore(workdir / "chaos")
        with inject(plan) as injector:
            with MeasurementEngine(store=store) as engine:
                faulted = run_production(
                    **LOT, engine=engine, report=True
                )
                resumed = run_production(
                    **LOT, engine=engine, report=True, resume=True
                )
        chaos_identical = (
            faulted.measured_nf_db == plain.measured_nf_db
            and resumed.measured_nf_db == plain.measured_nf_db
        )
        n_injected = len(injector.log)

        rows = [
            ["plain screen", t_plain, "-", "-"],
            [
                "hardened screen",
                t_guarded,
                "retry policy + report",
                f"{overhead * 100:+.1f}%",
            ],
            [
                "chaos screen",
                "-",
                f"{n_injected} faults injected",
                "identical" if chaos_identical else "DIVERGED",
            ],
        ]
        emit(
            "faults",
            render_table(
                ["stage", "seconds", "detail", "vs plain"],
                rows,
                title=(
                    f"Fault tolerance - {N_DEVICES} x {N_SAMPLES} "
                    f"samples, nperseg {NPERSEG}, best of {BEST_OF}"
                ),
            ),
        )

        bench_path = REPO_ROOT / "BENCH_engine.json"
        try:
            payload = json.loads(bench_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}  # self-heal a missing or truncated file
        payload["faults"] = {
            "n_cpus": os.cpu_count(),
            "env": envinfo(),
            "workload": {
                "n_devices": N_DEVICES,
                "n_samples": N_SAMPLES,
                "nperseg": NPERSEG,
                "best_of": BEST_OF,
            },
            "overhead": {
                "plain_seconds": round(t_plain, 4),
                "hardened_seconds": round(t_guarded, 4),
                "overhead_fraction": round(overhead, 4),
                "identical": bool(clean_identical),
            },
            "chaos": {
                "plan": "transient",
                "n_injected": n_injected,
                "injections_by_site": injector.counts(),
                "identical": bool(chaos_identical),
                "retries": faulted.run_report.retries
                + resumed.run_report.retries,
                "quarantined": len(store.quarantine_log),
            },
        }
        bench_path.write_text(json.dumps(payload, indent=2) + "\n")

        # Acceptance bars (ISSUE 6): the hardening stack is free on
        # clean runs, and injected faults never change the answer.
        assert clean_identical
        assert chaos_identical
        assert n_injected > 0
        assert overhead <= MAX_OVERHEAD
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
