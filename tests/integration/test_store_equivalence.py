"""Integration: store-backed execution equals cold execution bit for bit.

The acceptance bars of the store subsystem:

* a cache hit returns exactly what a recompute would (``measure``);
* a resumed plan recomputes *only* the missing tasks;
* a production retest replan measures only the failed / guard-band
  devices and its merged outcome equals a full re-screen.
"""

import numpy as np
import pytest

from repro.engine import (
    MeasurementEngine,
    MeasurementTask,
    ResultStore,
    plan_measurements,
    plan_retest,
)
from repro.errors import ConfigurationError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.production import (
    _draw_lot,
    _lot_tasks,
    _per_device,
    retest_rngs_for,
    run_production,
    run_production_retest,
)
from repro.experiments.record_length import run_record_length
from repro.experiments.robustness import run_robustness
from repro.signals.random import spawn_rngs

from tests.unit.test_engine import KwargsSim
from tests.unit.test_store import assert_results_identical

N_SAMPLES = 20_000
NPERSEG = 1000


def _sim():
    return MatlabSimulation(
        MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG)
    )


class CountingSim(MatlabSimulation):
    """A simulation that counts how many records it acquires.

    The counter is private on purpose: public attributes are part of a
    bench's provenance fingerprint (as they should be), so a public
    counter would change the bench's identity with every acquisition.
    """

    def __init__(self, config=None):
        super().__init__(config)
        self._acquired = 0

    @property
    def acquired_records(self) -> int:
        return self._acquired

    # Every acquisition — single measures and planned groups alike —
    # enters here.  The engine forwards rng_mode= to a signature that
    # names it or takes **kwargs (see KwargsSim).
    def acquire_bitstreams(
        self, states, rngs, digitizer=None, rng_mode="compat"
    ):
        self._acquired += len(list(states))
        return super().acquire_bitstreams(
            states, rngs, digitizer=digitizer, rng_mode=rng_mode
        )


class TestEngineCache:
    def test_hit_is_bit_identical_to_recompute(self, tmp_path):
        sim = _sim()
        estimator = sim.make_estimator()
        store = ResultStore(tmp_path / "s")
        cached_engine = MeasurementEngine(store=store)
        first = cached_engine.measure(sim, estimator, rng=7)
        hit = cached_engine.measure(sim, estimator, rng=7)
        cold = MeasurementEngine().measure(sim, estimator, rng=7)
        assert_results_identical(first, cold)
        assert_results_identical(hit, cold)

    def test_hit_skips_acquisition(self, tmp_path):
        sim = CountingSim(MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG))
        estimator = sim.make_estimator()
        engine = MeasurementEngine(store=ResultStore(tmp_path / "s"))
        engine.measure(sim, estimator, rng=7)
        assert sim.acquired_records == 2
        engine.measure(sim, estimator, rng=7)
        assert sim.acquired_records == 2  # warm: nothing acquired

    def test_kwargs_wrapper_records_are_stored(self, tmp_path):
        sim = KwargsSim(MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG))
        estimator = sim.make_estimator()
        store = ResultStore(tmp_path / "s")
        engine = MeasurementEngine(store=store)
        engine.measure(sim, estimator, rng=7)
        key = engine.task_key(sim, estimator, 7)
        assert store.has_result(key)

    def test_cache_read_mode_never_writes(self, tmp_path):
        sim = _sim()
        estimator = sim.make_estimator()
        store = ResultStore(tmp_path / "s")
        engine = MeasurementEngine(store=store, cache="read")
        engine.measure(sim, estimator, rng=7)
        assert len(store.index()) == 0

    def test_cache_write_mode_never_reads(self, tmp_path):
        sim = CountingSim(MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG))
        estimator = sim.make_estimator()
        store = ResultStore(tmp_path / "s")
        engine = MeasurementEngine(store=store, cache="write")
        engine.measure(sim, estimator, rng=7)
        engine.measure(sim, estimator, rng=7)
        assert sim.acquired_records == 4  # both calls measured

    def test_unseeded_measurement_bypasses_store(self, tmp_path):
        sim = _sim()
        estimator = sim.make_estimator()
        store = ResultStore(tmp_path / "s")
        MeasurementEngine(store=store).measure(sim, estimator, rng=None)
        assert len(store.index()) == 0

    def test_invalid_cache_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(
                store=ResultStore(tmp_path / "s"), cache="sometimes"
            )

    def test_store_must_be_a_result_store(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(store="/not/a/store")


class TestPlanResume:
    def _tasks(self, sims, n=6):
        # Integer seeds: a task's key must be recomputable when the
        # plan is replayed, and generator objects are single-use (their
        # lineage advances as they spawn — by design).
        return [
            MeasurementTask(sims[i], sims[i].make_estimator(), 100 + i)
            for i in range(n)
        ]

    def test_plan_persists_and_resume_recomputes_only_missing(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        n = 6
        sims = [
            CountingSim(MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG))
            for _ in range(n)
        ]
        tasks = self._tasks(sims, n)
        engine = MeasurementEngine(store=store)
        cold = plan_measurements(tasks).run(engine)
        assert sum(s.acquired_records for s in sims) == 2 * n
        # Simulate an interruption: drop half the stored results.
        keys = [engine.task_key(t.source, t.estimator, t.rng) for t in tasks]
        dropped = [1, 3, 4]
        for i in dropped:
            store._path("results", keys[i]).unlink()
        resumed = plan_measurements(tasks).run(engine, resume=True)
        assert sum(s.acquired_records for s in sims) == 2 * (n + len(dropped))
        for i in range(n):
            assert_results_identical(resumed[i], cold[i])
        # The recomputed tasks were re-persisted as their group ran.
        assert all(store.has_result(k) for k in keys)

    def test_fully_warm_resume_acquires_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        sims = [
            CountingSim(MatlabSimConfig(n_samples=N_SAMPLES, nperseg=NPERSEG))
            for _ in range(4)
        ]
        tasks = self._tasks(sims, 4)
        engine = MeasurementEngine(store=store)
        plan_measurements(tasks).run(engine)
        acquired = sum(s.acquired_records for s in sims)
        again = plan_measurements(tasks).run(engine, resume=True)
        assert sum(s.acquired_records for s in sims) == acquired
        assert len(again) == 4 and all(r is not None for r in again)

    def test_resume_without_store_rejected(self):
        tasks = self._tasks([_sim() for _ in range(4)], 4)
        with pytest.raises(ConfigurationError):
            plan_measurements(tasks).run(MeasurementEngine(), resume=True)

    def test_scheduler_run_resume_passthrough(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with MeasurementEngine(store=store) as engine:
            tasks = self._tasks([_sim() for _ in range(4)], 4)
            cold = plan_measurements(tasks).run(engine)
            warm = plan_measurements(tasks).run(engine, resume=True)
            for a, b in zip(cold, warm):
                assert_results_identical(a, b)


class TestRetest:
    KW = dict(
        limit_db=8.0,
        nf_spread_db=1.5,
        n_devices=6,
        n_samples=2**14,
        nperseg=2048,
        seed=2005,
    )

    def test_plan_retest_covers_only_failures(self):
        sims = [_sim() for _ in range(4)]
        rngs = spawn_rngs(3, 4)
        tasks = [
            MeasurementTask(s, s.make_estimator(), r)
            for s, r in zip(sims, rngs)
        ]
        plan = plan_retest(tasks, ["pass", "fail", "retest", "pass"])
        covered = sorted(i for g in plan.groups for i in g.indices)
        assert covered == [1, 2]
        results = plan.run(MeasurementEngine())
        assert results[0] is None and results[3] is None
        assert results[1] is not None and results[2] is not None

    def test_plan_retest_validates_inputs(self):
        sim = _sim()
        tasks = [MeasurementTask(sim, sim.make_estimator(), 1)]
        with pytest.raises(ConfigurationError):
            plan_retest(tasks, ["pass", "fail"])
        with pytest.raises(ConfigurationError):
            plan_retest(tasks, ["maybe"])
        with pytest.raises(ConfigurationError):
            plan_retest(tasks, [3.5])
        with pytest.raises(ConfigurationError):
            plan_retest(tasks, ["fail"], retest_rngs=[1, 2])

    def test_merged_outcome_equals_full_rescreen(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with MeasurementEngine(store=store) as engine:
            retest = run_production_retest(
                **self.KW, retest_guardband_sigmas=1.0, engine=engine
            )
        assert 0 < retest.n_retested < self.KW["n_devices"]
        # The reference: a cold full re-screen where retested devices
        # use their retest generators and everyone else the original.
        n = self.KW["n_devices"]
        true_values, device_rngs = _draw_lot(
            self.KW["limit_db"], self.KW["nf_spread_db"], n, self.KW["seed"]
        )
        tasks = _lot_tasks(
            true_values,
            _per_device(self.KW["n_samples"], n, "n_samples"),
            _per_device(self.KW["nperseg"], n, "nperseg"),
            device_rngs,
        )
        retest_rngs = retest_rngs_for(self.KW["seed"], n)
        full_tasks = [
            MeasurementTask(
                t.source,
                t.estimator,
                retest_rngs[i] if i in retest.retest_indices else t.rng,
            )
            for i, t in enumerate(tasks)
        ]
        full = plan_measurements(full_tasks).run(MeasurementEngine())
        full_values = [float(r.noise_figure_db) for r in full]
        assert full_values == retest.merged_nf_db

    def test_second_retest_reads_outcome_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with MeasurementEngine(store=store) as engine:
            first = run_production_retest(
                **self.KW, retest_guardband_sigmas=1.0, engine=engine
            )
            assert not first.initial_from_store
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            second = run_production_retest(
                **self.KW, retest_guardband_sigmas=1.0, engine=engine
            )
        assert second.initial_from_store
        assert second.merged_nf_db == first.merged_nf_db
        assert second.retest_indices == first.retest_indices

    def test_retest_without_store_still_works(self):
        retest = run_production_retest(**self.KW, retest_guardband_sigmas=1.0)
        assert not retest.initial_from_store
        assert retest.n_retested >= 0
        assert len(retest.merged_nf_db) == self.KW["n_devices"]


class TestExperimentResume:
    def test_production_resume_identical(self, tmp_path):
        kw = dict(
            n_devices=6, n_samples=2**14, nperseg=2048, seed=2005
        )
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            cold = run_production(**kw, engine=engine, resume=True)
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            warm = run_production(**kw, engine=engine, resume=True)
        assert warm.measured_nf_db == cold.measured_nf_db
        baseline = run_production(**kw)
        assert baseline.measured_nf_db == cold.measured_nf_db

    def test_record_length_resume_identical(self, tmp_path):
        kw = dict(lengths=(2**13, 2**14), n_trials=2, seed=2005)
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            cold = run_record_length(**kw, engine=engine)
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            warm = run_record_length(**kw, engine=engine, resume=True)
        assert [p.nf_mean_db for p in warm.points] == [
            p.nf_mean_db for p in cold.points
        ]

    def test_robustness_resume_identical(self, tmp_path):
        kw = dict(
            n_samples=2**14,
            seed=2005,
            offset_levels=(0.05,),
            noise_levels=(0.05,),
            hysteresis_levels=(0.05,),
            jitter_levels=(0.5,),
        )
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            cold = run_robustness(**kw, engine=engine)
        with MeasurementEngine(store=ResultStore(tmp_path / "s")) as engine:
            warm = run_robustness(**kw, engine=engine, resume=True)
        assert warm.baseline_nf_db == cold.baseline_nf_db
        assert [p.nf_db for p in warm.points] == [
            p.nf_db for p in cold.points
        ]


class TestReviewRegressions:
    def test_cache_hit_preserves_generator_lineage(self, tmp_path):
        # A caller reusing one generator across two measure() calls must
        # see the same results whether the first call hit the store or
        # measured live (the hit path consumes the same spawn lineage).
        store = ResultStore(tmp_path / "s")
        sim = _sim()
        estimator = sim.make_estimator()
        engine = MeasurementEngine(store=store)

        gen_cold = np.random.default_rng(5)
        first_cold = engine.measure(sim, estimator, rng=gen_cold)
        second_cold = engine.measure(sim, estimator, rng=gen_cold)

        gen_warm = np.random.default_rng(5)
        first_warm = engine.measure(sim, estimator, rng=gen_warm)
        second_warm = engine.measure(sim, estimator, rng=gen_warm)
        assert_results_identical(first_warm, first_cold)
        assert_results_identical(second_warm, second_cold)

    def test_retest_rejects_generator_seed(self):
        with pytest.raises(ConfigurationError):
            run_production_retest(
                n_devices=4,
                n_samples=2**13,
                nperseg=1024,
                seed=np.random.default_rng(7),
            )

    def test_outcome_respects_cache_modes(self, tmp_path):
        kw = dict(n_devices=4, n_samples=2**13, nperseg=1024, seed=2005)
        # read-only engine: a "frozen" store is never written
        store = ResultStore(tmp_path / "frozen")
        with MeasurementEngine(store=store, cache="read") as engine:
            run_production(**kw, engine=engine)
        assert len(store.index()) == 0
        # write-only engine: outcomes are recorded but never trusted
        store = ResultStore(tmp_path / "w")
        with MeasurementEngine(store=store, cache="write") as engine:
            run_production(**kw, engine=engine)
            before = len(store.index().by_kind("outcomes"))
            retest = run_production_retest(
                **kw, retest_guardband_sigmas=1.0, engine=engine
            )
        assert before == 1
        assert not retest.initial_from_store


class TestWorkerDirectWrites:
    """Store writes of process-backend lots (the parent persists every
    result a worker measured) and store byte budgets."""

    N = 8

    def _tasks(self):
        true_values, device_rngs = _draw_lot(8.0, 2.0, self.N, 7)
        return _lot_tasks(
            true_values, [2**14] * self.N, [2048] * self.N, device_rngs
        )

    def test_production_process_backend_persists_devices(self, tmp_path):
        # Regression: a store-backed homogeneous lot on the process
        # backend once took a per-device sweep whose workers rebuilt
        # benches out of the provenance keys' reach — only the outcome
        # manifest persisted, never the per-device results.
        from repro.experiments.production import run_production

        store = ResultStore(tmp_path / "lot")
        with MeasurementEngine(
            backend="process", max_workers=2, store=store
        ) as engine:
            run_production(
                n_devices=4,
                n_samples=2**14,
                nperseg=2048,
                seed=99,
                engine=engine,
            )
        walk = store.index()
        assert len(walk.by_kind("results")) == 4
        assert len(walk.by_kind("outcomes")) == 1

    def test_cache_budget_keeps_store_bounded(self, tmp_path):
        store = ResultStore(tmp_path / "budget")
        one = ResultStore(tmp_path / "one")
        tasks = self._tasks()
        plan_measurements(tasks[:1]).run(MeasurementEngine(store=one))
        per_entry = one.index().entries[0].nbytes
        budget = int(2.5 * per_entry)
        with MeasurementEngine(
            store=store, cache_budget_bytes=budget
        ) as engine:
            plan_measurements(self._tasks()).run(engine)
        walk = store.index()
        assert walk.total_bytes <= budget
        assert 0 < len(walk) < self.N

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(cache_budget_bytes=0)
