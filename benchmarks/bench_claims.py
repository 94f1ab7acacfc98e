"""Benchmark: the repo's wall-clock claims, measured in interleaved pairs.

Each claim times two ways of doing the same work, A and B, as
``N_PAIRS[claim]`` pairs whose order alternates (A first in even
pairs, B first in odd ones), so a drift of the host during the run
lands on both sides.  The claim's statistic is the median over pairs
of ``t_A / t_B``:

* a speedup claim (A the slow side) holds when that median is at
  least its bar;
* an overhead claim (A the side carrying the feature) holds when the
  median is at most ``1 + bar``.

Each bar is the threshold its feature was accepted with; nothing
outside this file moves it.  Every claim prints its pair count, its
A/B median and the quartiles of A's own runs, whose spread shows how
noisy the host was.  Deterministic bars (bit identity, spawn counts,
store convergence, injected-fault counts, the retest covering part of
the lot) are tier-1 tests under ``tests/``, not asserted here.

Run from this directory: ``PYTHONPATH=../src python -m pytest
bench_claims.py -q``.
"""

import contextlib
import os
import pathlib
import queue
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.digitizer.digitizer import OneBitDigitizer
from repro.dsp.psd import welch
from repro.dsp.spectrum import Spectrum
from repro.dsp.windows import get_window, window_gains
from repro.engine import MeasurementEngine, ResultStore, RetryPolicy
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.production import run_production, run_production_retest
from repro.service import (
    JobSpec,
    MeasurementService,
    ServiceClient,
    ServiceConfig,
    wait_for_server,
)
from repro.signals.random import make_rng, spawn_rngs
from repro.signals.sources import GaussianNoiseSource, SquareSource

REPO_ROOT = pathlib.Path(__file__).parent.parent
N_CPUS = os.cpu_count() or 1

#: Pairs per claim, chosen so the spread of A's own runs on a 2-CPU
#: host sits well inside the claim's margin (docs/PERFORMANCE.md,
#: "Running the benchmarks").
N_PAIRS = {
    "pool_reuse": 6,
    "warm_store": 6,
    "retest": 6,
    "concurrent_writers": 4,
    "daemon": 24,
    "obs": 160,
    "faults": 16,
    "engine": 4,
    "philox": 6,
}

#: The paper-scale record: 1e6 samples, FFT size 1e4.
PAPER = MatlabSimConfig()
#: Eight 2**16-sample devices: the lot the store, fault and daemon
#: claims were accepted on.
LOT = dict(n_devices=8, n_samples=2**16, nperseg=4096)
#: The same lot with about 2 of 8 devices above the limit, so the
#: retest re-measures a part of it, not all of it.
RETEST_LOT = dict(
    LOT, limit_db=8.0, nf_spread_db=1.5, measurement_sigma_db=0.45, seed=2011
)
SEED = 2005


def _pairs(n_pairs, run_a, run_b):
    """Seconds of ``n_pairs`` interleaved runs of A and B.

    Pair ``i`` calls both with ``i``; A goes first when ``i`` is even.
    """
    a, b = [], []
    for i in range(n_pairs):
        order = [(run_a, a), (run_b, b)]
        if i % 2:
            order.reverse()
        for run, times in order:
            start = time.perf_counter()
            run(i)
            times.append(time.perf_counter() - start)
    return np.array(a), np.array(b)


def _claim(emit, name, run_a, run_b, a_is, b_is):
    """Measure one claim; print and return its median ``t_A / t_B``."""
    a, b = _pairs(N_PAIRS[name], run_a, run_b)
    ratio = float(np.median(a / b))
    q1, median, q3 = np.percentile(a, [25, 50, 75])
    emit(
        f"claim_{name}",
        f"{name}: {len(a)} pairs, median A/B {ratio:.3f} "
        f"(A = {a_is}, B = {b_is}); A runs median {median:.3f} s, "
        f"quartiles {q1:.3f}-{q3:.3f} s (spread {(q3 - q1) / median:.1%}); "
        f"{N_CPUS} CPU(s)",
    )
    return ratio


@pytest.fixture(scope="module")
def screened_store(tmp_path_factory):
    """A store holding the initial screen of ``RETEST_LOT``."""
    root = tmp_path_factory.mktemp("screened") / "store"
    with MeasurementEngine(store=ResultStore(root)) as engine:
        run_production(**RETEST_LOT, engine=engine, resume=True)
    return root


# ----------------------------------------------------------------------
# Pool reuse: a session of small sweeps on one persistent worker pool
# against a fresh pool per sweep.  Bar: >= 2x.
# ----------------------------------------------------------------------
N_SWEEPS = 10
SWEEP_TASKS = [(10_000, 2000)] * 4


def analyze_record(task, rng):
    """Sweep worker: one small Welch analysis of a fresh record."""
    n_samples, nperseg = task
    record = rng.normal(size=n_samples)
    return float(welch(record, nperseg=nperseg, sample_rate=10_000.0).psd.sum())


def _session(engine_for_sweep):
    gen = make_rng(SEED)
    for _ in range(N_SWEEPS):
        rngs = spawn_rngs(gen, len(SWEEP_TASKS))
        with engine_for_sweep() as engine:
            engine.map_sweep(analyze_record, SWEEP_TASKS, rngs=rngs)


def test_pool_reuse(emit):
    with MeasurementEngine(backend="process") as persistent:
        def fresh_pools(_):
            _session(lambda: MeasurementEngine(backend="process"))

        def one_pool(_):
            _session(lambda: contextlib.nullcontext(persistent))

        fresh_pools(0)
        one_pool(0)  # spawns the persistent pool
        ratio = _claim(
            emit, "pool_reuse", fresh_pools, one_pool,
            "a fresh pool per sweep", "one persistent pool",
        )
    assert ratio >= 2.0


# ----------------------------------------------------------------------
# Warm-store sweep: the retest lot served from a filled store against
# measuring it into an empty one.  Bar: >= 10x.
# ----------------------------------------------------------------------
def test_warm_store(emit, screened_store, tmp_path):
    def cold(i):
        store = ResultStore(tmp_path / f"cold-{i}")
        with MeasurementEngine(store=store) as engine:
            run_production(**RETEST_LOT, engine=engine, resume=True)

    def warm(_):
        with MeasurementEngine(store=ResultStore(screened_store)) as engine:
            run_production(**RETEST_LOT, engine=engine, resume=True)

    warm(0)
    ratio = _claim(
        emit, "warm_store", cold, warm, "cold store", "warm store"
    )
    assert ratio >= 10.0


# ----------------------------------------------------------------------
# Retest replan: re-measuring only the failed and guard-band devices of
# a stored screen against re-screening the whole lot.  Bar: >= 1.0x.
# ----------------------------------------------------------------------
def test_retest(emit, screened_store, tmp_path):
    # Each retest writes its re-measured devices, so each gets its own
    # copy of the screened store, made before the clock starts.
    copies = [
        shutil.copytree(screened_store, tmp_path / f"retest-{i}")
        for i in range(N_PAIRS["retest"])
    ]

    def full_lot(_):
        run_production(**RETEST_LOT)

    def retest(i):
        with MeasurementEngine(store=ResultStore(copies[i])) as engine:
            run_production_retest(
                **RETEST_LOT, retest_guardband_sigmas=1.0, engine=engine
            )

    full_lot(0)
    ratio = _claim(
        emit, "retest", full_lot, retest, "full re-screen", "retest replan"
    )
    assert ratio >= 1.0


# ----------------------------------------------------------------------
# Two writer processes screening disjoint lots into one store at once,
# against the same two running one after the other.  Bar: >= 1.2x,
# asserted only with more than one CPU: a single core serializes them.
# ----------------------------------------------------------------------
WRITER = """\
import sys
from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.production import run_production

with MeasurementEngine(store=ResultStore(sys.argv[1])) as engine:
    run_production(
        n_devices=8, n_samples=2**14, nperseg=2048, seed=int(sys.argv[2]),
        engine=engine,
    )
"""
WRITER_SEEDS = (3001, 3002)


def _writer(store_dir, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", WRITER, str(store_dir), str(seed)], env=env
    )


def _wait_ok(child):
    if child.wait(timeout=600.0) != 0:
        raise RuntimeError(f"writer exited with {child.returncode}")


def test_concurrent_writers(emit, tmp_path):
    def sequential(i):
        for seed in WRITER_SEEDS:
            _wait_ok(_writer(tmp_path / f"seq-{i}", seed))

    def concurrent(i):
        children = [
            _writer(tmp_path / f"conc-{i}", seed) for seed in WRITER_SEEDS
        ]
        for child in children:
            _wait_ok(child)

    ratio = _claim(
        emit, "concurrent_writers", sequential, concurrent,
        "writers one after the other", "writers at once",
    )
    if N_CPUS > 1:
        assert ratio >= 1.2


# ----------------------------------------------------------------------
# Daemon overhead: a lot submitted to an in-process daemon (socket,
# admission, journal, executor) against the same lot run directly.
# A fresh seed per pair keeps both sides cache misses.  Bar: <= +5%.
# ----------------------------------------------------------------------
def test_daemon(emit, tmp_path):
    service = MeasurementService(
        ServiceConfig(
            store_root=str(tmp_path / "daemon"),
            backend="serial",
            journal_fsync=False,
        )
    )
    ready = queue.Queue()
    thread = threading.Thread(target=service.run, args=(ready.put,))
    thread.start()
    try:
        socket_path = ready.get(timeout=30.0)["socket"]
        wait_for_server(socket_path, timeout_s=10.0)

        def daemon_lot(i):
            spec = JobSpec(kind="lot", params=dict(LOT, seed=SEED + i))
            with ServiceClient(socket_path, timeout_s=600.0) as client:
                ack = client.submit(spec, wait=True, wait_timeout_s=600.0)
            if ack["job"]["state"] != "ok":
                raise RuntimeError(f"daemon lot failed: {ack['job']}")

        def direct_lot(i):
            store = ResultStore(tmp_path / f"direct-{i}")
            with MeasurementEngine(store=store) as engine:
                run_production(
                    **LOT, seed=SEED + i, engine=engine, resume=True,
                    report=True, max_group_devices=8,
                )

        daemon_lot(-1)
        direct_lot(-1)
        ratio = _claim(
            emit, "daemon", daemon_lot, direct_lot, "daemon lot", "direct lot"
        )
    finally:
        service.request_drain()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert ratio <= 1.05


# ----------------------------------------------------------------------
# Observability: one paper-scale measurement (perfbench's paper_screen
# operation) with the metrics registry and trace ring on against off.
# Bar: <= +2%.
# ----------------------------------------------------------------------
def test_obs(emit):
    sim = MatlabSimulation(PAPER)
    estimator = sim.make_estimator()
    engine = MeasurementEngine()

    def obs_on(_):
        obs.enable()
        engine.measure(sim, estimator, rng=SEED)

    def obs_off(_):
        obs.disable()
        engine.measure(sim, estimator, rng=SEED)

    was_enabled = obs.enabled()
    try:
        obs_on(0)
        obs_off(0)
        ratio = _claim(emit, "obs", obs_on, obs_off, "obs on", "obs off")
    finally:
        obs.enable() if was_enabled else obs.disable()
    assert ratio <= 1.02


# ----------------------------------------------------------------------
# Fault hardening: the lot on an engine with a retry policy and a run
# report against the plain call, no injector installed.  Bar: <= +5%.
# ----------------------------------------------------------------------
def test_faults(emit):
    def hardened(_):
        with MeasurementEngine(retry=RetryPolicy()) as engine:
            run_production(**LOT, seed=SEED, engine=engine, report=True)

    def plain(_):
        run_production(**LOT, seed=SEED)

    hardened(0)
    plain(0)
    ratio = _claim(emit, "faults", hardened, plain, "hardened", "plain")
    assert ratio <= 1.05


# ----------------------------------------------------------------------
# Batched engine: 4 paper-scale repeats through MeasurementEngine
# against a replica of the seed implementation's serial path.
# Bar: >= 1.5x.
# ----------------------------------------------------------------------
N_REPEATS = 4


def seed_loop_welch(samples, nperseg, fs):
    """The seed's per-segment Welch loop (Hann, 50% overlap, detrend)."""
    step = nperseg // 2
    win = get_window("hann", nperseg)
    n_segments = 1 + (samples.size - nperseg) // step
    acc = np.zeros(nperseg // 2 + 1)
    for k in range(n_segments):
        seg = samples[k * step : k * step + nperseg]
        seg = seg - np.mean(seg)
        psd = np.abs(np.fft.rfft(seg * win)) ** 2 / (fs * np.sum(win**2))
        psd[1:-1] *= 2.0
        acc += psd
    return acc / n_segments


def _seed_spectrum(sim, state, rng):
    """One state's spectrum the seed's way: the reference re-rendered
    on every acquisition, the ``np.unique`` bit check, the Welch loop."""
    c = sim.config
    gen = make_rng(rng)
    noise = GaussianNoiseSource(sim.noise_rms(state)).render(
        c.n_samples, c.sample_rate_hz, gen
    )
    reference = SquareSource(
        c.reference_frequency_hz, sim.reference_amplitude_v
    ).render(c.n_samples, c.sample_rate_hz)
    bits = OneBitDigitizer().digitize(noise, reference, gen).samples
    assert np.unique(bits).size <= 2
    win = get_window("hann", c.nperseg)
    coherent, noise_gain = window_gains(win)
    enbw = c.sample_rate_hz * noise_gain / coherent**2 / c.nperseg
    freqs = np.fft.rfftfreq(c.nperseg, d=1.0 / c.sample_rate_hz)
    psd = seed_loop_welch(bits, c.nperseg, c.sample_rate_hz)
    return Spectrum(freqs, psd, enbw_hz=enbw)


def run_seed_serial(sim, estimator):
    """The seed's serial repeat loop, replicated end to end."""
    for child in spawn_rngs(make_rng(SEED), N_REPEATS):
        rng_hot, rng_cold = spawn_rngs(child, 2)
        estimator.estimate_from_spectra(
            _seed_spectrum(sim, "hot", rng_hot),
            _seed_spectrum(sim, "cold", rng_cold),
        )


def test_engine(emit):
    sim = MatlabSimulation(PAPER)
    estimator = sim.make_estimator()
    engine = MeasurementEngine()

    def seed_serial(_):
        run_seed_serial(sim, estimator)

    def batched(_):
        engine.run_batch(sim, estimator, N_REPEATS, rng=SEED)

    batched(0)
    ratio = _claim(
        emit, "engine", seed_serial, batched,
        "seed-serial replica", "batched engine",
    )
    assert ratio >= 1.5


# ----------------------------------------------------------------------
# philox synthesis: eight paper-scale MatlabSimulation records drawn as
# direct Bernoulli bits against the compat per-record float path.
# Bar: >= 3.0x.
# ----------------------------------------------------------------------
def test_philox(emit):
    sim = MatlabSimulation(PAPER)

    def acquire(rng_mode):
        return lambda _: sim.acquire_bitstreams(
            ["hot", "cold"] * 4, spawn_rngs(SEED, 8), rng_mode=rng_mode
        )

    compat, philox = acquire("compat"), acquire("philox")
    compat(0)
    philox(0)
    ratio = _claim(
        emit, "philox", compat, philox, "compat synthesis", "philox synthesis"
    )
    assert ratio >= 3.0
