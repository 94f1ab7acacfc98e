"""Scheduler equivalence: planned heterogeneous screens reproduce the
per-device serial path bit for bit.

The planner's contract is that grouping tasks into compatible
sub-batches changes *how* work is executed, never the numbers: every
task's generators are spawned exactly as per-device ``measure`` spawns
them, and the batched kernels are bit-exact per record.  These tests
pin that contract at the experiments layer (the mixed-configuration
production screen), across backends (persistent pool reused over
several planned runs) and for the process backend's lot fan-out (one
chunk of whole devices per pool worker).
"""

import os

import numpy as np
import pytest

from repro.engine import (
    MeasurementEngine,
    MeasurementTask,
    ResultStore,
    plan_measurements,
)
from repro.errors import MeasurementError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.production import (
    _draw_lot,
    _lot_tasks,
    run_production,
    run_production_retest,
)
from repro.signals.random import make_rng, spawn_rngs

MIXED_SAMPLES = [2**15] * 4 + [2**16] * 4


def per_device_nfs(n_devices, n_samples, nperseg, seed):
    """The lot of ``run_production`` measured one ``engine.measure``
    call per device."""
    true_values, device_rngs = _draw_lot(8.0, 1.5, n_devices, seed)
    tasks = _lot_tasks(true_values, n_samples, nperseg, device_rngs)
    engine = MeasurementEngine()
    return [
        engine.measure(t.source, t.estimator, rng=t.rng).noise_figure_db
        for t in tasks
    ]


class TestMixedConfigProduction:
    @pytest.fixture(scope="class")
    def planned(self):
        return run_production(
            n_devices=8, n_samples=MIXED_SAMPLES, seed=11
        )

    def test_planner_splits_lot(self, planned):
        assert planned.n_plan_groups == 2

    def test_bit_identical_to_per_device_sweep(self, planned):
        per_device = per_device_nfs(8, MIXED_SAMPLES, [8192] * 8, 11)
        assert planned.measured_nf_db == per_device

    def test_mixed_nperseg_also_splits(self):
        result = run_production(
            n_devices=8,
            n_samples=2**15,
            nperseg=[4096] * 4 + [8192] * 4,
            seed=11,
        )
        assert result.n_plan_groups == 2
        homogeneous = run_production(
            n_devices=8, n_samples=2**15, nperseg=4096, seed=11
        )
        # The first four devices share seed and configuration with the
        # homogeneous 4096-bin lot, so their measurements must agree.
        assert result.measured_nf_db[:4] == homogeneous.measured_nf_db[:4]


class TestHeterogeneousScreenAcrossBackends:
    def _tasks(self, seed):
        sims = [
            MatlabSimulation(MatlabSimConfig(n_samples=n, nperseg=3000))
            for n in (60_000, 30_000, 60_000, 30_000, 60_000, 30_000)
        ]
        rngs = spawn_rngs(make_rng(seed), len(sims))
        return [
            MeasurementTask(sim, sim.make_estimator(), rng)
            for sim, rng in zip(sims, rngs)
        ]

    def test_process_backend_matches_serial(self):
        serial = plan_measurements(self._tasks(31)).run(MeasurementEngine())
        with MeasurementEngine(backend="process", max_workers=2) as engine:
            procs = plan_measurements(self._tasks(31)).run(engine)
        assert [r.noise_figure_db for r in procs] == [
            r.noise_figure_db for r in serial
        ]

    def test_pool_reused_across_planned_runs(self):
        with MeasurementEngine(backend="process", max_workers=2) as engine:
            first = plan_measurements(self._tasks(31)).run(engine)
            second = plan_measurements(self._tasks(31)).run(engine)
            assert engine.worker_pool.spawn_count == 1
        assert [r.noise_figure_db for r in first] == [
            r.noise_figure_db for r in second
        ]


#: An odd lot: two pool workers split it into chunks of 3 and 2.
ODD_LOT = dict(n_devices=5, n_samples=2**14, nperseg=2048, seed=2005)


def _store_bytes(store):
    """Every payload of a store, by ``(kind, key)``."""
    return {(e.kind, e.key): e.read_bytes() for e in store.index()}


def _spawned(gen):
    return gen.bit_generator.seed_seq.n_children_spawned


def _small_sims(*reference_ratios):
    return [
        MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=3000, reference_ratio=ratio
            )
        )
        for ratio in reference_ratios
    ]


class TestLotFanOut:
    """Planned groups on the process backend measure whole devices in
    the pool workers, bit for bit like the serial path."""

    @pytest.mark.parametrize("rng_mode", ["compat", "philox"])
    def test_lot_and_retest_match_serial(self, tmp_path, rng_mode):
        runs = {}
        for backend in ("serial", "process"):
            store = ResultStore(tmp_path / backend)
            with MeasurementEngine(
                backend=backend,
                max_workers=2,
                rng_mode=rng_mode,
                store=store,
            ) as engine:
                lot = run_production(engine=engine, **ODD_LOT)
                retest = run_production_retest(engine=engine, **ODD_LOT)
            runs[backend] = (lot, retest, _store_bytes(store))
        lot_s, retest_s, bytes_s = runs["serial"]
        lot_p, retest_p, bytes_p = runs["process"]
        assert lot_p.measured_nf_db == lot_s.measured_nf_db
        assert retest_p.initial_from_store and retest_s.initial_from_store
        # At least two retested devices: the retest is a fanned-out
        # group too, not a per-device fallback.
        assert len(retest_s.retest_indices) >= 2
        assert retest_p.retest_indices == retest_s.retest_indices
        assert retest_p.merged_nf_db == retest_s.merged_nf_db
        n_results = ODD_LOT["n_devices"] + len(retest_s.retest_indices)
        assert sum(kind == "results" for kind, _ in bytes_s) == n_results
        assert bytes_p == bytes_s

    def test_storeless_philox_process_lot_is_philox(self):
        # Regression: a storeless process lot once took a per-device
        # sweep that dropped the engine's rng_mode and measured compat.
        kw = dict(n_devices=4, n_samples=2**15, nperseg=4096, seed=2005)
        with MeasurementEngine(
            backend="process", max_workers=2, rng_mode="philox"
        ) as engine:
            procs = run_production(engine=engine, **kw)
        with MeasurementEngine(rng_mode="philox") as engine:
            serial = run_production(engine=engine, **kw)
        assert procs.measured_nf_db == serial.measured_nf_db
        assert procs.measured_nf_db != run_production(**kw).measured_nf_db

    def test_one_chunk_per_worker_and_failures_keep_their_slots(self):
        sims = _small_sims(0.2, 0.001, 0.2, 0.2, 0.001)
        estimators = [sim.make_estimator() for sim in sims]
        serial = MeasurementEngine().measure_devices(
            sims, estimators, rng=7, allow_failures=True
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.measure_devices(
                sims, estimators, rng=7, allow_failures=True
            )
            telemetry = eng.worker_pool.telemetry
            assert (telemetry.attempts, telemetry.retries) == (2, 0)
        assert [r is None for r in procs] == [
            False, True, False, False, True
        ]
        assert [r and r.noise_figure_db for r in procs] == [
            r and r.noise_figure_db for r in serial
        ]

    def test_worker_measurement_error_is_not_retried(self):
        sims = _small_sims(0.2, 0.001, 0.2)
        estimators = [sim.make_estimator() for sim in sims]
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            with pytest.raises(MeasurementError):
                eng.measure_devices(sims, estimators, rng=7)
            assert eng.worker_pool.telemetry.retries == 0

    def test_caller_generators_consumed_like_serial(self):
        sims = _small_sims(0.2, 0.2, 0.2)
        estimators = [sim.make_estimator() for sim in sims]
        runs = {}
        for backend in ("serial", "process"):
            gen = make_rng(5)
            device_rngs = spawn_rngs(make_rng(9), 3)
            with MeasurementEngine(backend=backend, max_workers=2) as eng:
                shared = eng.measure_devices(sims, estimators, rng=gen)
                own = eng.measure_devices(sims, estimators, rngs=device_rngs)
            runs[backend] = (
                [r.noise_figure_db for r in shared + own],
                _spawned(gen),
                [_spawned(g) for g in device_rngs],
            )
        assert runs["process"] == runs["serial"]
        assert runs["process"][1:] == (3, [2, 2, 2])

    def test_generator_seeded_lot_consumes_seed_like_serial(self):
        seeds = {}
        for backend in ("serial", "process"):
            gen = np.random.default_rng(17)
            with MeasurementEngine(backend=backend, max_workers=2) as engine:
                lot = run_production(
                    engine=engine, **{**ODD_LOT, "seed": gen}
                )
            seeds[backend] = (lot.measured_nf_db, _spawned(gen))
        assert seeds["process"] == seeds["serial"]


def _result_fields(result):
    """The numbers of a result, for exact comparison (None stays None)."""
    if result is None:
        return None
    return (
        result.noise_figure_db,
        result.y,
        result.band_power_hot,
        result.band_power_cold,
        result.normalization.hot.psd.tobytes(),
        result.normalization.cold.psd.tobytes(),
    )


def _device_bench():
    """One production-lot device bench and its estimator."""
    true_values, _ = _draw_lot(8.0, 1.5, 4, 2005)
    [task] = _lot_tasks(true_values[:1], [2**14], [2048], [None])
    return task.source, task.estimator


class AcquireLoggingSim(MatlabSimulation):
    """A simulation that notes which process acquires each batch."""

    def __init__(self, config, log_dir):
        super().__init__(config)
        self.log_dir = log_dir

    def acquire_bitstreams(
        self, states, rngs, digitizer=None, rng_mode="compat"
    ):
        path = os.path.join(self.log_dir, f"{os.getpid()}.records")
        with open(path, "a") as log:
            log.write(f"{len(states)}\n")
        return super().acquire_bitstreams(
            states, rngs, digitizer, rng_mode=rng_mode
        )


class TestRepeatFanOut:
    """A process ``run_batch`` measures one chunk of whole repeats per
    pool worker, bit for bit like one in-process batch."""

    @pytest.mark.parametrize("rng_mode", ["compat", "philox"])
    @pytest.mark.parametrize("bench", ["matlab_sim", "device_bench"])
    def test_process_run_batch_matches_serial(self, rng_mode, bench):
        if bench == "matlab_sim":
            [source] = _small_sims(0.2)
            estimator = source.make_estimator()
        else:
            source, estimator = _device_bench()
        runs = {}
        for backend in ("serial", "process"):
            with MeasurementEngine(
                backend=backend, max_workers=2, rng_mode=rng_mode
            ) as eng:
                # Three repeats on two workers: chunks of 2 and 1.
                results = eng.run_batch(source, estimator, 3, rng=11)
                if backend == "process":
                    assert eng.worker_pool.telemetry.attempts == 2
            runs[backend] = [_result_fields(r) for r in results]
        assert runs["process"] == runs["serial"]

    def test_workers_acquire_whole_repeats(self, tmp_path):
        sim = AcquireLoggingSim(
            MatlabSimConfig(n_samples=30_000, nperseg=3000), str(tmp_path)
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            eng.run_batch(sim, sim.make_estimator(), 3, rng=1)
            # A single measure stays in this process.
            eng.measure(sim, sim.make_estimator(), rng=1)
        logs = {
            int(p.stem): p.read_text().split() for p in tmp_path.iterdir()
        }
        assert logs.pop(os.getpid()) == ["2"]
        # Each worker acquired its chunk's hot/cold pairs: 2 + 1 repeats.
        assert sorted(n for log in logs.values() for n in log) == ["2", "4"]

    def test_allow_failures_keep_their_slots(self):
        # A marginal reference line: repeats 0 and 2 lose it, repeat 1
        # keeps it, so the first chunk (repeats 0-1) is mixed.
        [sim] = _small_sims(0.03)
        estimator = sim.make_estimator()
        serial = MeasurementEngine().run_batch(
            sim, estimator, 3, rng=5, allow_failures=True
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.run_batch(
                sim, estimator, 3, rng=5, allow_failures=True
            )
        assert [r is None for r in procs] == [True, False, True]
        assert [_result_fields(r) for r in procs] == [
            _result_fields(r) for r in serial
        ]

    def test_worker_measurement_error_is_not_retried(self):
        [sim] = _small_sims(0.001)
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            with pytest.raises(MeasurementError):
                eng.run_batch(sim, sim.make_estimator(), 3, rng=7)
            telemetry = eng.worker_pool.telemetry
            assert (telemetry.attempts, telemetry.retries) == (2, 0)

    def test_caller_generator_consumed_like_serial(self):
        [sim] = _small_sims(0.2)
        estimator = sim.make_estimator()
        runs = {}
        for backend in ("serial", "process"):
            gen = make_rng(5)
            with MeasurementEngine(backend=backend, max_workers=2) as eng:
                first = eng.run_batch(sim, estimator, 3, rng=gen)
                second = eng.run_batch(sim, estimator, 2, rng=gen)
            runs[backend] = (
                [r.noise_figure_db for r in first + second],
                _spawned(gen),
            )
        assert runs["process"] == runs["serial"]
        assert runs["process"][1] == 5
