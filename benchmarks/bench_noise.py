"""Benchmark (extension): the fast noise-synthesis layer.

Four measurements at paper scale (8 records x 1e6 samples, nperseg
1e4), merged into ``BENCH_engine.json`` under the ``"noise"`` key:

* **Record synthesis.**  The compat per-record loop (each record's
  Gaussian floats drawn on its own ``default_rng`` stream, digitized,
  packed) versus philox-mode direct synthesis (per-record Philox
  counter streams, one 32-bit uniform compare per bit, no Gaussian
  floats).  Acceptance bar: >= 3x records/sec.
* **Noise-matrix fill.**  The raw white-noise 2-D fill
  (``GaussianNoiseSource.render_batch``) compat vs philox — reported
  for context (the float fill is ziggurat-bound; the record-synthesis
  win comes from never materializing the floats).
* **Threaded philox fill.**  The philox row fan-out over threads
  versus one thread: bit-identical always, and >= 1.3x on multi-core
  hosts.
* **End-to-end pipeline.**  ``MeasurementEngine.run_batch`` (4
  repeats = 8 records, acquisition + batched Welch + estimation)
  compat vs philox.

Compat bit-identity is re-asserted on every run: the compat engine's
packed records and NF are identical (diff == 0.0) to the seed-serial
acquisition — the fast layer changes nothing unless asked.
"""

import json
import os
import pathlib
import time

import numpy as np

from conftest import envinfo, run_once

from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.reporting.tables import render_table
from repro.signals.random import spawn_rngs
from repro.signals.sources import GaussianNoiseSource

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_RECORDS = 8
N_SAMPLES = 1_000_000
NPERSEG = 10_000

#: Acceptance floor for philox-mode record synthesis (the tentpole's
#: >= 3x claim; dedicated hosts measure ~4-5x).  Shared CI runners can
#: relax it via the environment.
MIN_SYNTH_SPEEDUP = float(os.environ.get("BENCH_NOISE_MIN_SPEEDUP", "3.0"))

#: Acceptance floor for the threaded philox row fan-out — asserted only
#: on multi-core hosts (a single core has nothing to fan out to).
MIN_THREADED_FILL_SPEEDUP = float(
    os.environ.get("BENCH_NOISE_MIN_THREAD_SPEEDUP", "1.3")
)


def _states(n):
    return ["hot", "cold"] * (n // 2)


def _acquire(sim, seed, rng_mode):
    return sim.acquire_bitstreams(
        _states(N_RECORDS),
        spawn_rngs(seed, N_RECORDS),
        packed=True,
        rng_mode=rng_mode,
    )[0]


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _best_of(n, fn, *args):
    best = None
    result = None
    for _ in range(n):
        result, seconds = _time(fn, *args)
        best = seconds if best is None else min(best, seconds)
    return result, best


def test_noise(benchmark, emit):
    seed = 2005
    sim = MatlabSimulation(
        MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG)
    )
    estimator = sim.make_estimator()

    # --- record synthesis: compat per-record loop vs philox direct ---
    compat_batch = run_once(benchmark, _acquire, sim, seed, "compat")
    _, t_compat = _best_of(2, _acquire, sim, seed, "compat")
    philox_batch, t_philox = _best_of(2, _acquire, sim, seed, "philox")
    synth_speedup = t_compat / t_philox
    records_per_s_compat = N_RECORDS / t_compat
    records_per_s_philox = N_RECORDS / t_philox

    # The two modes draw different realizations of the same process —
    # their bit fractions must agree to binomial resolution.
    frac_diff = float(
        np.abs(
            np.unpackbits(compat_batch.words, axis=-1, count=N_SAMPLES)
            .mean(axis=-1)
            - np.unpackbits(philox_batch.words, axis=-1, count=N_SAMPLES)
            .mean(axis=-1)
        ).max()
    )

    # --- raw white-noise 2-D fill (context) --------------------------
    source = GaussianNoiseSource(0.3)
    _, t_fill_compat = _best_of(
        2, source.render_batch, N_SAMPLES, 1e4, spawn_rngs(seed, N_RECORDS)
    )
    _, t_fill_philox = _best_of(
        2,
        lambda: source.render_batch(
            N_SAMPLES, 1e4, spawn_rngs(seed, N_RECORDS), rng_mode="philox"
        ),
    )

    # --- threaded philox row fan-out (multi-core hosts) --------------
    from repro.signals.batch_rng import BatchNoiseGenerator

    serial_fill, t_fill_serial = _best_of(
        2,
        lambda: BatchNoiseGenerator(spawn_rngs(seed, N_RECORDS)).normal_matrix(
            N_SAMPLES, threads=1
        ),
    )
    threaded_fill, t_fill_threaded = _best_of(
        2,
        lambda: BatchNoiseGenerator(spawn_rngs(seed, N_RECORDS)).normal_matrix(
            N_SAMPLES
        ),
    )
    threaded_identical = bool(np.array_equal(serial_fill, threaded_fill))
    threaded_speedup = t_fill_serial / t_fill_threaded

    # --- end-to-end pipeline (acquire + Welch + estimate) ------------
    with MeasurementEngine() as compat_engine:
        _, t_e2e_compat = _best_of(
            2, compat_engine.run_batch, sim, estimator, 4, seed
        )
    with MeasurementEngine(rng_mode="philox") as philox_engine:
        _, t_e2e_philox = _best_of(
            2, philox_engine.run_batch, sim, estimator, 4, seed
        )
    e2e_speedup = t_e2e_compat / t_e2e_philox

    # --- compat bit-identity vs the seed-serial acquisition ----------
    replay = spawn_rngs(seed, N_RECORDS)
    serial_rows = [
        sim.bitstream(state, rng).samples
        for state, rng in zip(_states(N_RECORDS), replay)
    ]
    record_diff = max(
        float(np.abs(compat_batch[i].unpack() - serial_rows[i]).max())
        for i in range(N_RECORDS)
    )
    nf_compat = MeasurementEngine().measure(
        sim, estimator, rng=seed
    ).noise_figure_db
    nf_serial = estimator.measure(sim.bitstream, rng=seed).noise_figure_db
    nf_diff = abs(nf_compat - nf_serial)

    rows = [
        ["synthesis compat", t_compat, f"{records_per_s_compat:.1f} rec/s", "-"],
        [
            "synthesis philox",
            t_philox,
            f"{records_per_s_philox:.1f} rec/s",
            f"{synth_speedup:.1f}x",
        ],
        ["white fill compat", t_fill_compat, "-", "-"],
        [
            "white fill philox",
            t_fill_philox,
            "-",
            f"{t_fill_compat / t_fill_philox:.2f}x",
        ],
        [
            "philox fill threaded",
            t_fill_threaded,
            f"{os.cpu_count()} CPU(s), bit-identical",
            f"{threaded_speedup:.2f}x",
        ],
        ["end-to-end compat", t_e2e_compat, "8 records", "-"],
        [
            "end-to-end philox",
            t_e2e_philox,
            "8 records",
            f"{e2e_speedup:.2f}x",
        ],
    ]
    emit(
        "noise",
        render_table(
            ["stage", "seconds", "detail", "speedup"],
            rows,
            title=(
                f"Noise-synthesis layer - {N_RECORDS} x {N_SAMPLES} "
                f"records, nperseg {NPERSEG}, {os.cpu_count()} CPU(s)"
            ),
        ),
    )

    bench_path = REPO_ROOT / "BENCH_engine.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}  # self-heal a missing or truncated file
    payload["noise"] = {
        "n_cpus": os.cpu_count(),
        "env": envinfo(),
        "synthesis": {
            "n_records": N_RECORDS,
            "n_samples": N_SAMPLES,
            "compat_seconds": round(t_compat, 4),
            "philox_seconds": round(t_philox, 4),
            "compat_records_per_s": round(records_per_s_compat, 2),
            "philox_records_per_s": round(records_per_s_philox, 2),
            "speedup": round(synth_speedup, 2),
            "bit_fraction_max_diff": frac_diff,
        },
        "white_fill": {
            "compat_seconds": round(t_fill_compat, 4),
            "philox_seconds": round(t_fill_philox, 4),
            "speedup": round(t_fill_compat / t_fill_philox, 2),
        },
        "threaded_fill": {
            "serial_seconds": round(t_fill_serial, 4),
            "threaded_seconds": round(t_fill_threaded, 4),
            "speedup": round(threaded_speedup, 2),
            "identical": threaded_identical,
        },
        "end_to_end": {
            "compat_seconds": round(t_e2e_compat, 4),
            "philox_seconds": round(t_e2e_philox, 4),
            "speedup": round(e2e_speedup, 2),
        },
        "compat_bit_identity": {
            "record_max_abs_diff": record_diff,
            "nf_abs_diff_db": nf_diff,
        },
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    # Acceptance bars: >= 3x philox record synthesis and compat
    # bit-identity.
    assert record_diff == 0.0
    assert nf_diff == 0.0
    assert frac_diff < 5e-3
    assert synth_speedup >= MIN_SYNTH_SPEEDUP
    # Threaded row fan-out: always bit-identical; the wall-clock bar
    # only exists where there are cores to fan out to.
    assert threaded_identical
    if (os.cpu_count() or 1) > 1:
        assert threaded_speedup >= MIN_THREADED_FILL_SPEEDUP
