"""Benchmark (extension): batched measurement engine throughput.

Measures the full paper-scale measurement pipeline (1e6-sample records,
FFT size 1e4, hot/cold pairs) in four modes:

* ``seed_serial`` — a faithful replica of the seed implementation's
  serial path: the reference waveform re-rendered on every acquisition,
  the ``np.unique`` bitstream check, and the per-segment Python Welch
  loop;
* ``serial`` — the current serial path (cached reference, vectorized
  bitstream check, blocked batched Welch);
* ``engine`` — :class:`repro.engine.MeasurementEngine` with all records
  stacked into one batch;
* ``engine_mp`` — the engine's ``ProcessPoolExecutor`` backend fanning
  repeats over worker processes (only meaningful on multi-core hosts;
  the JSON records the CPU count alongside).

All modes must agree: bitstreams are bit-exact across paths and PSDs
match the loop implementation to <= 1e-10.  Results land in
``BENCH_engine.json`` at the repo root so the perf trajectory is
tracked in git from this PR onward.
"""

import json
import os
import pathlib
import time

import numpy as np

from conftest import envinfo, run_once

from repro.core.bist import OneBitNoiseFigureBIST
from repro.digitizer.digitizer import OneBitDigitizer
from repro.dsp.spectrum import Spectrum
from repro.dsp.windows import get_window, window_gains
from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.reporting.tables import render_table
from repro.signals.random import make_rng, spawn_rngs
from repro.signals.sources import GaussianNoiseSource, SquareSource

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_REPEATS = 4
PAPER_CONFIG = MatlabSimConfig()  # 1e6 samples, nperseg 1e4


def seed_loop_welch(samples, nperseg, fs, window="hann", overlap=0.5):
    """The seed's per-segment Welch loop (detrend on), kept verbatim."""
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    win = get_window(window, nperseg)
    n_segments = 1 + (samples.size - nperseg) // step
    acc = np.zeros(nperseg // 2 + 1)
    for k in range(n_segments):
        seg = samples[k * step : k * step + nperseg]
        seg = seg - np.mean(seg)
        spectrum = np.fft.rfft(seg * win)
        psd = (np.abs(spectrum) ** 2) / (fs * np.sum(win**2))
        if nperseg % 2 == 0:
            psd[1:-1] *= 2.0
        else:
            psd[1:] *= 2.0
        acc += psd
    return acc / n_segments


def _seed_bitstream(sim, state, rng):
    """Seed-style acquisition: reference re-rendered on every call."""
    c = sim.config
    gen = make_rng(rng)
    noise = GaussianNoiseSource(sim.noise_rms(state)).render(
        c.n_samples, c.sample_rate_hz, gen
    )
    reference = SquareSource(
        c.reference_frequency_hz, sim.reference_amplitude_v
    ).render(c.n_samples, c.sample_rate_hz)
    return OneBitDigitizer().digitize(noise, reference, gen)


def _seed_spectrum(samples, config):
    win = get_window("hann", config.nperseg)
    coherent, noise = window_gains(win)
    enbw = config.sample_rate_hz * noise / (coherent**2) / config.nperseg
    psd = seed_loop_welch(samples, config.nperseg, config.sample_rate_hz)
    freqs = np.fft.rfftfreq(config.nperseg, d=1.0 / config.sample_rate_hz)
    return Spectrum(freqs, psd, enbw_hz=enbw)


def run_seed_serial(sim, estimator, seed):
    """The seed's serial repeat loop, replicated end to end."""
    values = []
    for child in spawn_rngs(make_rng(seed), N_REPEATS):
        rng_hot, rng_cold = spawn_rngs(child, 2)
        bits_hot = _seed_bitstream(sim, "hot", rng_hot)
        bits_cold = _seed_bitstream(sim, "cold", rng_cold)
        for bits in (bits_hot, bits_cold):
            unique = np.unique(bits.samples)  # the seed's O(n log n) check
            assert unique.size <= 2
        result = estimator.estimate_from_spectra(
            _seed_spectrum(bits_hot.samples, sim.config),
            _seed_spectrum(bits_cold.samples, sim.config),
        )
        values.append(result.noise_figure_db)
    return values


def run_serial(sim, estimator, seed):
    """The current (post-engine) serial path."""
    values = []
    for child in spawn_rngs(make_rng(seed), N_REPEATS):
        result = estimator.measure(lambda s, r: sim.bitstream(s, r), rng=child)
        values.append(result.noise_figure_db)
    return values


def run_engine(sim, estimator, seed):
    engine = MeasurementEngine()
    results = engine.run_batch(sim, estimator, N_REPEATS, rng=seed)
    return [r.noise_figure_db for r in results]


def _measure_one(sim, rng):
    """Process-backend worker: one two-state measurement."""
    estimator = sim.make_estimator()
    return MeasurementEngine().measure(sim, estimator, rng=rng).noise_figure_db


def run_engine_mp(sim, estimator, seed):
    repeat_rngs = spawn_rngs(make_rng(seed), N_REPEATS)
    with MeasurementEngine(backend="process") as engine:
        return engine.map_sweep(
            _measure_one, [sim] * N_REPEATS, rngs=repeat_rngs
        )


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_engine(benchmark, emit):
    sim = MatlabSimulation(PAPER_CONFIG)
    estimator = sim.make_estimator()
    seed = 2005
    records = 2 * N_REPEATS

    # Correctness first: one record's batched PSD vs the seed loop.
    bits, _ = sim.acquire_bitstreams(
        ("hot",), [spawn_rngs(make_rng(seed), 1)[0]]
    )
    engine_psd = MeasurementEngine().spectra_of(
        bits, sim.config.sample_rate_hz, estimator
    ).psd[0]
    loop_psd = seed_loop_welch(
        bits[0].unpack(), sim.config.nperseg, sim.config.sample_rate_hz
    )
    psd_diff = float(np.max(np.abs(engine_psd - loop_psd) / np.max(loop_psd)))
    assert psd_diff <= 1e-10

    nf_seed, t_seed = _time(run_seed_serial, sim, estimator, seed)
    nf_serial, t_serial = _time(run_serial, sim, estimator, seed)
    nf_engine = run_once(benchmark, run_engine, sim, estimator, seed)
    _, t_engine = _time(run_engine, sim, estimator, seed)
    nf_mp, t_mp = _time(run_engine_mp, sim, estimator, seed)

    nf_diff = max(
        abs(a - b)
        for other in (nf_serial, nf_engine, nf_mp)
        for a, b in zip(nf_seed, other)
    )
    assert nf_diff <= 1e-9

    modes = {
        "seed_serial": t_seed,
        "serial": t_serial,
        "engine": t_engine,
        "engine_mp": t_mp,
    }
    rows = [
        [
            name,
            seconds,
            records / seconds,
            modes["seed_serial"] / seconds,
        ]
        for name, seconds in modes.items()
    ]
    emit(
        "engine",
        render_table(
            ["mode", "seconds", "records/s", "speedup vs seed"],
            rows,
            title=(
                f"Engine throughput - {records} records of "
                f"{sim.config.n_samples:.0e} samples, nperseg "
                f"{sim.config.nperseg:.0e}, {os.cpu_count()} CPU(s)"
            ),
        ),
    )

    bench_path = REPO_ROOT / "BENCH_engine.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}  # self-heal a missing or truncated file
    # Merge so sections owned by other benches (e.g. "noise", written
    # by bench_noise.py) survive a rerun of this one.
    payload.update({
        "workload": {
            "n_samples": sim.config.n_samples,
            "nperseg": sim.config.nperseg,
            "n_repeats": N_REPEATS,
            "n_records": records,
        },
        "n_cpus": os.cpu_count(),
        "env": envinfo(),
        "psd_max_rel_diff_vs_loop": psd_diff,
        "nf_max_abs_diff_db": nf_diff,
        "modes": {
            name: {
                "seconds": round(seconds, 4),
                "records_per_sec": round(records / seconds, 3),
                "speedup_vs_seed_serial": round(
                    modes["seed_serial"] / seconds, 3
                ),
            }
            for name, seconds in modes.items()
        },
    })
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")

    # The engine must beat the seed serial path decisively.
    assert modes["seed_serial"] / modes["engine"] > 1.5
    assert all(r is not None for r in nf_engine)
