"""Tests for repro.engine (MeasurementEngine API and sweeps)."""

import numpy as np
import pytest

from repro.core.averaging import RepeatedMeasurement
from repro.dsp.psd import welch, welch_batch
from repro.engine import Engine, MeasurementEngine
from repro.errors import ConfigurationError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import make_rng, spawn_rngs

FS = 10000.0


def small_sim(n_samples=60_000, nperseg=3000):
    return MatlabSimulation(
        MatlabSimConfig(n_samples=n_samples, nperseg=nperseg)
    )


def square(task, rng):
    """Module-level worker so the process backend can pickle it."""
    return task * task


def draw(task, rng):
    """Worker whose result depends only on the per-task generator."""
    return float(rng.normal())


class TestEngineConstruction:
    def test_engine_alias(self):
        assert Engine is MeasurementEngine

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(backend="threads")

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(max_workers=0)


class TestWelchBatch:
    def test_rows_match_single_record_welch(self, rng):
        records = rng.normal(size=(3, 30000))
        batch = welch_batch(records, nperseg=2000, sample_rate=FS)
        assert batch.n_records == 3
        for i in range(3):
            single = welch(records[i], nperseg=2000, sample_rate=FS)
            assert np.array_equal(batch.psd[i], single.psd)
            assert np.array_equal(batch.frequencies, single.frequencies)
            assert batch.enbw_hz == single.enbw_hz

    def test_1d_input_promoted(self, rng):
        record = rng.normal(size=10000)
        batch = welch_batch(record, nperseg=1000, sample_rate=FS)
        assert batch.psd.shape[0] == 1

    def test_3d_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            welch_batch(np.zeros((2, 2, 100)), nperseg=10, sample_rate=FS)

    def test_spectrum_rows(self, rng):
        records = rng.normal(size=(2, 10000))
        batch = welch_batch(records, nperseg=1000, sample_rate=FS)
        spectra = batch.spectra()
        assert len(spectra) == 2
        assert np.array_equal(spectra[1].psd, batch.psd[1])


class TestRunBatch:
    def test_result_count_and_order(self):
        sim = small_sim()
        eng = MeasurementEngine()
        results = eng.run_batch(sim, sim.make_estimator(), 3, rng=9)
        assert len(results) == 3
        assert all(r is not None for r in results)

    def test_invalid_repeats(self):
        sim = small_sim()
        with pytest.raises(ConfigurationError):
            MeasurementEngine().run_batch(sim, sim.make_estimator(), 0)

    def test_reproducible_from_seed(self):
        sim = small_sim()
        eng = MeasurementEngine()
        a = eng.run_batch(sim, sim.make_estimator(), 2, rng=77)
        b = eng.run_batch(sim, sim.make_estimator(), 2, rng=77)
        assert [r.noise_figure_db for r in a] == [r.noise_figure_db for r in b]

    def test_sample_rate_mismatch_rejected(self):
        sim = small_sim()
        other = MatlabSimulation(
            MatlabSimConfig(
                n_samples=60_000, nperseg=3000, sample_rate_hz=8000.0
            )
        )
        with pytest.raises(ConfigurationError):
            MeasurementEngine().run_batch(sim, other.make_estimator(), 2, rng=1)

    def test_short_rngs_rejected_in_batch_digitizer(self):
        from repro.digitizer.comparator import Comparator
        from repro.digitizer.sampler import SampledLatch

        comparator = Comparator(input_noise_rms=1e-6)
        with pytest.raises(ConfigurationError):
            comparator.compare_batch(
                np.zeros((3, 50)), np.zeros(50), rngs=[make_rng(0)]
            )
        latch = SampledLatch(divider=2, jitter_rms_samples=0.5)
        with pytest.raises(ConfigurationError):
            latch.sample_batch(np.ones((3, 50)), rngs=[make_rng(0)])

    def test_non_bitstream_rejected(self):
        class BadSource:
            def acquire_bitstreams(self, states, rngs):
                return np.full((len(list(states)), 6000), 0.5), FS

        sim = small_sim(nperseg=3000)
        with pytest.raises(ConfigurationError):
            MeasurementEngine().run_batch(
                BadSource(), sim.make_estimator(), 1, rng=1
            )


class TestMeasureBatchAveraging:
    def test_statistics_match_serial(self):
        sim = small_sim()
        est = sim.make_estimator()
        rep = RepeatedMeasurement(est, n_repeats=3)
        serial = rep.measure(lambda s, r: sim.bitstream(s, r), rng=4)
        batched = rep.measure_batch(sim, rng=4)
        assert batched.n_measurements == serial.n_measurements
        assert batched.nf_mean_db == pytest.approx(serial.nf_mean_db, abs=1e-9)
        assert batched.nf_std_db == pytest.approx(serial.nf_std_db, abs=1e-9)


class TestMapSweep:
    def test_serial_order_preserved(self):
        eng = MeasurementEngine()
        assert eng.map_sweep(square, [3, 1, 2], seed=0) == [9, 1, 4]

    def test_empty_tasks(self):
        assert MeasurementEngine().map_sweep(square, [], seed=0) == []

    def test_explicit_rngs_length_checked(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine().map_sweep(square, [1, 2], rngs=[make_rng(0)])

    def test_per_task_seeds_deterministic(self):
        a = MeasurementEngine().map_sweep(draw, [0, 1, 2], seed=5)
        b = MeasurementEngine().map_sweep(draw, [0, 1, 2], seed=5)
        assert a == b
        # Different tasks get different child generators.
        assert len(set(a)) == 3

    def test_process_backend_matches_serial(self):
        tasks = [0, 1, 2, 3]
        serial = MeasurementEngine().map_sweep(draw, tasks, seed=11)
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.map_sweep(draw, tasks, seed=11)
        assert procs == serial

    def test_executor_helpers(self):
        # Explicit per-task generators travel with the tasks: the pool
        # workers draw exactly what the in-process sweep draws.
        serial = MeasurementEngine().map_sweep(
            draw, [0, 1], rngs=spawn_rngs(make_rng(3), 2)
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.map_sweep(
                draw, [0, 1], rngs=spawn_rngs(make_rng(3), 2)
            )
        assert procs == serial
