"""Benchmark (extension): the persistent measurement result store.

Three measurements over one production lot, merged into
``BENCH_engine.json`` under the ``"store"`` key:

* **Cold vs warm sweep.**  The same planned production screen run
  twice against one store: the cold pass measures and persists every
  device, the warm pass serves the whole lot from provenance-keyed
  cache hits.  Acceptance bars: warm >= 10x cold (relaxable via
  ``BENCH_STORE_MIN_WARM_SPEEDUP`` for noisy shared runners) and the
  warm screen bit-identical to the cold one.
* **Cache-hit identity.**  One device measured through a store-backed
  engine and through a bare engine — NF and the full normalized
  spectra must match exactly (the store's serialization contract).
* **Retest vs full lot.**  ``run_production_retest`` against the warm
  store (initial screen loaded, only failed / guard-band devices
  re-measured) versus a full re-screen of the lot.  Acceptance bar:
  the retest replan is faster than the full lot.
"""

import json
import os
import pathlib
import shutil
import tempfile
import time

import numpy as np

from conftest import envinfo, run_once

from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.production import run_production, run_production_retest
from repro.reporting.tables import render_table

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_DEVICES = 8
N_SAMPLES = 2**16
NPERSEG = 4096
#: A lot that is not pure worst-case: ~2/8 devices above the limit, so
#: the retest replan visibly beats a full re-screen (a lot straddling
#: the limit retests almost everything — correct, but a weak bar).
SEED = 2011

#: Acceptance floor for the warm-cache speedup (dedicated hosts
#: measure far higher; shared CI runners can relax via environment).
MIN_WARM_SPEEDUP = float(os.environ.get("BENCH_STORE_MIN_WARM_SPEEDUP", "10"))

#: The retest replan must beat a full re-screen by at least this
#: factor (1.0 = merely faster; it measures ~half the lot, so
#: dedicated hosts see ~2x).
MIN_RETEST_SPEEDUP = float(
    os.environ.get("BENCH_STORE_MIN_RETEST_SPEEDUP", "1.0")
)

LOT = dict(
    limit_db=8.0,
    nf_spread_db=1.5,
    n_devices=N_DEVICES,
    n_samples=N_SAMPLES,
    nperseg=NPERSEG,
    measurement_sigma_db=0.45,
    seed=SEED,
)


def _time(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_store(benchmark, emit):
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        store = ResultStore(workdir / "nfstore")

        # --- cold vs warm planned sweep ------------------------------
        with MeasurementEngine(store=store) as engine:
            cold = run_once(
                benchmark, run_production, **LOT, engine=engine,
                resume=True,
            )
            _, t_cold = _time(
                lambda: run_production(
                    **LOT,
                    engine=MeasurementEngine(store=ResultStore(
                        workdir / "nfstore_cold2"
                    )),
                    resume=True,
                )
            )
            warm, t_warm = _time(
                run_production, **LOT, engine=engine, resume=True
            )
        warm_speedup = t_cold / t_warm
        warm_identical = warm.measured_nf_db == cold.measured_nf_db

        # --- cache-hit identity for one device -----------------------
        sim = MatlabSimulation(
            MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG)
        )
        estimator = sim.make_estimator()
        cached_engine = MeasurementEngine(store=store)
        first = cached_engine.measure(sim, estimator, rng=SEED)
        hit = cached_engine.measure(sim, estimator, rng=SEED)
        bare = MeasurementEngine().measure(sim, estimator, rng=SEED)
        nf_hit_diff = abs(hit.noise_figure_db - bare.noise_figure_db)
        psd_hit_diff = float(
            np.abs(
                hit.normalization.hot.psd - bare.normalization.hot.psd
            ).max()
        )
        assert first.noise_figure_db == bare.noise_figure_db

        # --- retest replan vs full re-screen -------------------------
        with MeasurementEngine(store=store) as engine:
            retest, t_retest = _time(
                run_production_retest,
                **LOT,
                retest_guardband_sigmas=1.0,
                engine=engine,
            )
        _, t_full = _time(run_production, **LOT)
        retest_speedup = t_full / t_retest
        store_bytes = store.index().total_bytes

        rows = [
            ["cold planned screen", t_cold, f"{N_DEVICES} devices", "-"],
            [
                "warm planned screen",
                t_warm,
                "all cache hits",
                f"{warm_speedup:.1f}x",
            ],
            [
                "full re-screen",
                t_full,
                f"{N_DEVICES} devices",
                "-",
            ],
            [
                "retest replan",
                t_retest,
                f"{retest.n_retested}/{N_DEVICES} re-measured",
                f"{retest_speedup:.2f}x",
            ],
        ]
        emit(
            "store",
            render_table(
                ["stage", "seconds", "detail", "speedup"],
                rows,
                title=(
                    f"Result store - {N_DEVICES} x {N_SAMPLES} samples, "
                    f"nperseg {NPERSEG}, {store_bytes} stored bytes"
                ),
            ),
        )

        bench_path = REPO_ROOT / "BENCH_engine.json"
        try:
            payload = json.loads(bench_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}  # self-heal a missing or truncated file
        payload["store"] = {
            "n_cpus": os.cpu_count(),
            "env": envinfo(),
            "workload": {
                "n_devices": N_DEVICES,
                "n_samples": N_SAMPLES,
                "nperseg": NPERSEG,
            },
            "sweep": {
                "cold_seconds": round(t_cold, 4),
                "warm_seconds": round(t_warm, 4),
                "warm_speedup": round(warm_speedup, 2),
                "warm_identical": bool(warm_identical),
            },
            "cache_hit": {
                "nf_abs_diff_db": nf_hit_diff,
                "psd_max_abs_diff": psd_hit_diff,
            },
            "retest": {
                "full_seconds": round(t_full, 4),
                "retest_seconds": round(t_retest, 4),
                "n_retested": retest.n_retested,
                "speedup": round(retest_speedup, 2),
                "initial_from_store": retest.initial_from_store,
            },
            "store_bytes": store_bytes,
        }
        bench_path.write_text(json.dumps(payload, indent=2) + "\n")

        # Acceptance bars (ISSUE 5): bit-identical hits, >= 10x warm
        # sweep, retest lot cheaper than a full re-screen.
        assert warm_identical
        assert nf_hit_diff == 0.0
        assert psd_hit_diff == 0.0
        assert retest.initial_from_store
        assert 0 < retest.n_retested < N_DEVICES
        assert warm_speedup >= MIN_WARM_SPEEDUP
        assert retest_speedup >= MIN_RETEST_SPEEDUP
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
