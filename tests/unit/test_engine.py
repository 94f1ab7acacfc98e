"""Tests for repro.engine (MeasurementEngine API and sweeps)."""

import sys
import threading

import numpy as np
import pytest

from repro.core.averaging import RepeatedMeasurement
from repro.dsp.psd import welch, welch_batch
from repro.engine import MeasurementEngine, ResultStore
from repro.errors import ConfigurationError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import make_rng, spawn_rngs

FS = 10000.0


def small_sim(n_samples=60_000, nperseg=3000):
    return MatlabSimulation(
        MatlabSimConfig(n_samples=n_samples, nperseg=nperseg)
    )


class KwargsSim(MatlabSimulation):
    """A simulation whose ``acquire_bitstreams`` is a ``**kwargs``
    wrapper."""

    def acquire_bitstreams(self, states, rngs, **kwargs):
        return super().acquire_bitstreams(states, rngs, **kwargs)


def square(task, rng):
    """Module-level worker so the process backend can pickle it."""
    return task * task


def draw(task, rng):
    """Worker whose result depends only on the per-task generator."""
    return float(rng.normal())


class TestEngineConstruction:
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
                np.zeros((3, 50)), np.zeros(50), rngs=[make_rng(0)],
                sample_rate=FS,
            )
        latch = SampledLatch(divider=2, jitter_rms_samples=0.5)
        decisions = Comparator().compare_batch(
            np.ones((3, 50)), np.zeros(50), sample_rate=FS
        )
        with pytest.raises(ConfigurationError):
            latch.sample_batch_packed(decisions, rngs=[make_rng(0)])

    def test_non_bitstream_rejected(self):
        class BadSource:
            def acquire_bitstreams(self, states, rngs):
                return np.full((len(list(states)), 6000), 0.5), FS

        sim = small_sim(nperseg=3000)
        with pytest.raises(ConfigurationError):
            MeasurementEngine().run_batch(
                BadSource(), sim.make_estimator(), 1, rng=1
            )

    def test_float_stack_rejected(self, stage_chain):
        # A valid +/-1 float stack is still not a packed record batch.
        sim = small_sim()

        class FloatSource:
            def acquire_bitstreams(self, states, rngs):
                records = [
                    stage_chain(sim, state, rng).samples
                    for state, rng in zip(states, rngs)
                ]
                return np.vstack(records), sim.config.sample_rate_hz

        est = sim.make_estimator()
        with pytest.raises(ConfigurationError, match="PackedRecordBatch"):
            MeasurementEngine().measure(FloatSource(), est, rng=1)
        with pytest.raises(ConfigurationError, match="PackedRecordBatch"):
            MeasurementEngine().measure_devices([FloatSource()] * 2, est, rng=1)

    def test_kwargs_wrapper_gets_rng_mode(self):
        # A **kwargs wrapper must reach the philox synthesis it wraps,
        # not silently measure compat records under a philox key.
        sim = small_sim()
        wrapped = KwargsSim(sim.config)
        est = sim.make_estimator()
        engine = MeasurementEngine(rng_mode="philox")
        direct = engine.measure(sim, est, rng=7)
        via_wrapper = engine.measure(wrapped, est, rng=7)
        assert via_wrapper.noise_figure_db == direct.noise_figure_db
        assert via_wrapper.y == direct.y
        assert via_wrapper.noise_figure_db != (
            MeasurementEngine().measure(sim, est, rng=7).noise_figure_db
        )


class BarrierSim(MatlabSimulation):
    """A simulation whose acquisitions wait for a second one in flight."""

    def __init__(self, config):
        super().__init__(config)
        self._barrier = threading.Barrier(2, timeout=10)

    def acquire_bitstreams(self, states, rngs, **kwargs):
        self._barrier.wait()
        return super().acquire_bitstreams(states, rngs, **kwargs)


class FailingSim(MatlabSimulation):
    """A simulation whose acquisition of some states raises."""

    def __init__(self, config, failing):
        super().__init__(config)
        self._failing = failing

    def acquire_bitstreams(self, states, rngs, **kwargs):
        for state in states:
            if state in self._failing:
                raise ConfigurationError(f"{state} acquisition failed")
        return super().acquire_bitstreams(states, rngs, **kwargs)


class TestMeasureLegs:
    """``measure`` runs its hot and cold records on two threads."""

    def test_hot_and_cold_records_are_in_flight_at_once(self):
        sim = small_sim()
        est = sim.make_estimator()
        for mode in ("compat", "philox"):
            engine = MeasurementEngine(rng_mode=mode)
            both = engine.measure(BarrierSim(sim.config), est, rng=3)
            plain = engine.measure(sim, est, rng=3)
            assert (both.noise_figure_db, both.y) == (
                plain.noise_figure_db, plain.y
            )

    @pytest.mark.parametrize(
        "failing", [("hot",), ("cold",), ("hot", "cold")]
    )
    def test_a_leg_error_reaches_the_caller(self, failing):
        # When both legs raise, the hot leg's error is the one raised.
        sim = FailingSim(small_sim().config, failing)
        threads = threading.active_count()
        with pytest.raises(ConfigurationError, match=failing[0]):
            MeasurementEngine().measure(sim, sim.make_estimator(), rng=3)
        assert threading.active_count() == threads

    def test_concurrent_measures_share_lazy_caches(self):
        # Four callers (eight legs) race for one fresh simulation's and
        # one fresh bench's lazy references, Bernoulli thresholds and
        # window coefficients; each result must equal a measure on an
        # untouched object.
        def bench():
            return build_prototype_testbench(n_samples=2**16)

        for mode in ("compat", "philox"):
            engine = MeasurementEngine(rng_mode=mode)
            for make in (small_sim, bench):
                source = make()
                est = source.make_estimator()
                expected = [
                    engine.measure(make(), est, rng=seed).noise_figure_db
                    for seed in range(4)
                ]
                got = [None] * 4

                def run(seed):
                    got[seed] = engine.measure(
                        source, est, rng=seed
                    ).noise_figure_db

                callers = [
                    threading.Thread(target=run, args=(seed,))
                    for seed in range(4)
                ]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for caller in callers:
                        caller.start()
                    for caller in callers:
                        caller.join(timeout=60)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(caller.is_alive() for caller in callers)
                assert got == expected, (mode, make.__name__)

    def test_store_hit_starts_no_thread(self, tmp_path, monkeypatch):
        sim = small_sim()
        est = sim.make_estimator()
        engine = MeasurementEngine(store=ResultStore(str(tmp_path)))
        cold = engine.measure(sim, est, rng=3)
        started = []
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: started.append(self)
        )
        hit = engine.measure(sim, est, rng=3)
        assert started == []
        assert (hit.noise_figure_db, hit.y) == (cold.noise_figure_db, cold.y)


class TestMeasureBatchAveraging:
    def test_statistics_match_serial(self, stage_chain):
        # The serial reference: the estimator on one scalar stage-chain
        # pair per repeat child.
        sim = small_sim()
        est = sim.make_estimator()
        serial = []
        for child in spawn_rngs(make_rng(4), 3):
            hot, cold = (
                stage_chain(sim, state, rng)
                for state, rng in zip(("hot", "cold"), spawn_rngs(child, 2))
            )
            serial.append(est.estimate_from_bitstreams(hot, cold).noise_figure_db)
        batched = RepeatedMeasurement(est, n_repeats=3).measure(sim, rng=4)
        assert batched.nf_values_db == tuple(serial)
        assert batched.nf_mean_db == float(np.mean(serial))
        assert batched.nf_std_db == float(np.std(serial, ddof=1))


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
