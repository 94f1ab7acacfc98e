"""Tests for repro.engine.scheduler (WorkerPool, planner) and the
engine's ownership of its pool."""

import os
import time
from typing import NamedTuple

import numpy as np
import pytest

from repro.engine import (
    MeasurementEngine,
    MeasurementTask,
    ResultStore,
    RetryPolicy,
    WorkerPool,
    plan_measurements,
)
from repro.errors import ConfigurationError, ExecutionError, MeasurementError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.faults import FaultPlan, inject
from repro.signals.random import make_rng, spawn_rngs


def small_sim(n_samples=60_000, nperseg=3000):
    return MatlabSimulation(
        MatlabSimConfig(n_samples=n_samples, nperseg=nperseg)
    )


def square(task, rng):
    """Module-level worker so the process backend can pickle it."""
    return task * task


def _mark_call(marker_dir, index) -> int:
    """Record one worker invocation of a task; returns its call count.

    File-based so the count survives worker crashes and respawns — the
    parent-side retry bookkeeping is exactly what's under test.
    """
    path = os.path.join(marker_dir, f"task{index}.calls")
    with open(path, "ab") as handle:
        handle.write(b"x")
    return os.path.getsize(path)


def flaky_worker(payload):
    """Raises (transient) on the first ``fail_times`` calls per task."""
    marker_dir, index, fail_times = payload
    if _mark_call(marker_dir, index) <= fail_times:
        raise RuntimeError(f"transient failure of task {index}")
    return index * 10


def domain_error_worker(payload):
    """Raises a deterministic (never-retried) domain error."""
    marker_dir, index = payload
    _mark_call(marker_dir, index)
    raise MeasurementError(f"task {index} is deterministically bad")


def crashy_worker(payload):
    """Kills its worker process on the first ``crash_times`` calls."""
    marker_dir, index, crash_times = payload
    if _mark_call(marker_dir, index) <= crash_times:
        os._exit(66)
    return index + 100


def hangy_worker(payload):
    """Blocks far past any test timeout on the first call only."""
    marker_dir, index, hang_s = payload
    if _mark_call(marker_dir, index) == 1:
        time.sleep(hang_s)
    return index + 200


def packed_mean(task, rng):
    """Worker over a packed record payload (pickled with the task)."""
    record, scale = task
    return float(np.mean(record.unpack())) * scale


def packed_batch_total(task, rng):
    """Worker over a whole packed batch payload."""
    batch = task["batch"]
    return float(batch.unpack().sum()) + task["offset"]


class RecordTask(NamedTuple):
    """A NamedTuple sweep task carrying a packed record."""

    rec: object
    scale: float


def named_task_mean(task, rng):
    """Worker accessing the record by attribute (NamedTuple preserved)."""
    return float(np.mean(task.rec.unpack())) * task.scale


def reject_task(task, rng):
    """Sweep worker that fails with a domain error."""
    raise MeasurementError(f"task {task} is out of range")


class TestWorkerPool:
    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(max_workers=0)

    def test_lazy_spawn(self):
        pool = WorkerPool(max_workers=1)
        assert not pool.active
        assert pool.spawn_count == 0
        pool.close()  # idempotent on an unspawned pool

    def test_empty_map_never_spawns(self):
        pool = WorkerPool(max_workers=1)
        assert pool.map(square, []) == []
        assert pool.spawn_count == 0
        assert not pool.active

    def test_reuse_across_calls(self):
        with WorkerPool(max_workers=1) as pool:
            assert pool.map(abs, [-1, -2]) == [1, 2]
            assert pool.map(abs, [-3]) == [3]
            assert pool.spawn_count == 1
            assert pool.active

    def test_close_then_reuse_respawns(self):
        pool = WorkerPool(max_workers=1)
        assert pool.map(abs, [-1]) == [1]
        pool.close()
        assert not pool.active
        assert pool.map(abs, [-2]) == [2]
        assert pool.spawn_count == 2
        pool.close()

    def test_broken_pool_recovers(self):
        with WorkerPool(max_workers=1) as pool:
            assert pool.map(abs, [-1]) == [1]
            for proc in pool._executor._processes.values():
                proc.terminate()
            # The dead executor is detected, respawned, and the batch
            # retried — deterministically, since payloads carry their
            # own generators.
            assert pool.map(abs, [-4, -5]) == [4, 5]
            assert pool.spawn_count == 2

    def test_context_manager_closes(self):
        with WorkerPool(max_workers=1) as pool:
            pool.map(abs, [-1])
        assert not pool.active

    def test_sized_to_batch_not_cap(self):
        with WorkerPool(max_workers=16) as pool:
            pool.map(abs, [-1, -2])
            assert pool.size == 2  # not 16 workers for 2 tasks

    def test_grows_by_respawning(self):
        with WorkerPool(max_workers=16) as pool:
            pool.map(abs, [-1])
            assert pool.size == 1
            pool.map(abs, [-1, -2, -3])
            assert pool.size == 3
            assert pool.spawn_count == 2
            pool.map(abs, [-1, -2])  # smaller batch reuses, never shrinks
            assert pool.size == 3
            assert pool.spawn_count == 2


class TestRunWithProcesses:
    """The process backend's sweep path: ``map_sweep`` on the pool."""

    def test_empty_tasks_spawn_nothing(self):
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            assert eng.map_sweep(square, [], seed=0) == []
            assert eng.worker_pool.spawn_count == 0

    def test_pool_routing_matches_fresh_executor(self):
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            pooled = eng.map_sweep(
                square, [1, 2, 3], rngs=spawn_rngs(make_rng(3), 3)
            )
        serial = MeasurementEngine().map_sweep(
            square, [1, 2, 3], rngs=spawn_rngs(make_rng(3), 3)
        )
        assert pooled == serial == [1, 4, 9]


class TestSharedSweepPayloads:
    """Sweep tasks carrying packed records pickle to the workers."""

    @pytest.fixture
    def records(self):
        sim = small_sim(n_samples=30_000)
        batch, _ = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(make_rng(9), 2)
        )
        return batch

    def test_map_sweep_shm_matches_serial(self, records):
        tasks = [(records[0], 2.0), (records[1], 3.0)]
        serial = MeasurementEngine().map_sweep(packed_mean, tasks, seed=1)
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.map_sweep(packed_mean, tasks, seed=1)
        assert procs == serial

    def test_namedtuple_task_survives_shm_rewrite(self, records):
        tasks = [RecordTask(records[0], 2.0), RecordTask(records[1], 3.0)]
        serial = MeasurementEngine().map_sweep(named_task_mean, tasks, seed=1)
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            procs = eng.map_sweep(named_task_mean, tasks, seed=1)
        assert procs == serial

    def test_map_sweep_batch_payload_matches_serial(self, records):
        tasks = [{"batch": records, "offset": 5.0}]
        serial = MeasurementEngine().map_sweep(
            packed_batch_total, tasks, seed=1
        )
        with MeasurementEngine(backend="process", max_workers=1) as eng:
            procs = eng.map_sweep(packed_batch_total, tasks, seed=1)
        assert procs == serial


class BitstreamsOnlySource:
    """A batch acquirer with ``acquire_bitstreams`` and nothing else."""

    def __init__(self, sim):
        self._sim = sim

    def acquire_bitstreams(self, states, rngs):
        return self._sim.acquire_bitstreams(states, rngs)


class InterruptingSource(BitstreamsOnlySource):
    """A source whose acquisition is interrupted (Ctrl-C)."""

    calls = 0

    def acquire_bitstreams(self, states, rngs):
        self.calls += 1
        raise KeyboardInterrupt


class TestPlanner:
    def test_tuple_tasks_coerced(self):
        sim = small_sim()
        est = sim.make_estimator()
        plan = plan_measurements([(sim, est), (sim, est, 7)])
        assert plan.n_tasks == 2
        assert plan.tasks[1].rng == 7

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_measurements(["nonsense"])

    def test_compatible_tasks_grouped(self):
        sim_a, sim_b = small_sim(), small_sim(n_samples=30_000)
        est_a, est_b = sim_a.make_estimator(), sim_b.make_estimator()
        tasks = [
            MeasurementTask(sim_a, est_a, 1),
            MeasurementTask(sim_b, est_b, 2),
            MeasurementTask(sim_a, est_a, 3),
            MeasurementTask(sim_b, est_b, 4),
        ]
        plan = plan_measurements(tasks)
        assert plan.n_groups == 2
        assert [g.indices for g in plan.groups] == [(0, 2), (1, 3)]
        assert all(g.batched for g in plan.groups)
        assert plan.n_batched_tasks == 4

    def test_singleton_falls_back(self):
        sim_a, sim_b = small_sim(), small_sim(n_samples=30_000)
        tasks = [
            MeasurementTask(sim_a, sim_a.make_estimator(), 1),
            MeasurementTask(sim_a, sim_a.make_estimator(), 2),
            MeasurementTask(sim_b, sim_b.make_estimator(), 3),
        ]
        plan = plan_measurements(tasks)
        batched = [g for g in plan.groups if g.batched]
        singles = [g for g in plan.groups if not g.batched]
        assert [g.indices for g in batched] == [(0, 1)]
        assert [g.indices for g in singles] == [(2,)]

    def test_protocol_less_source_falls_back(self):
        """A source with only ``acquire_bitstreams`` joins a batch, and
        its planned results equal per-task ``measure``."""
        sim = small_sim()
        est = sim.make_estimator()
        plain = BitstreamsOnlySource(sim)
        tasks = [
            MeasurementTask(plain, est, 1),
            MeasurementTask(plain, est, 2),
            MeasurementTask(sim, est, 3),
            MeasurementTask(sim, est, 4),
        ]
        plan = plan_measurements(tasks)
        assert [g.indices for g in plan.groups if g.batched] == [
            (0, 1, 2, 3)
        ]
        assert not [g for g in plan.groups if not g.batched]
        planned = plan_measurements(tasks).run(MeasurementEngine())
        direct = [
            MeasurementEngine().measure(t.source, t.estimator, rng=t.rng)
            for t in tasks
        ]
        assert [(r.noise_figure_db, r.y) for r in planned] == [
            (r.noise_figure_db, r.y) for r in direct
        ]

    def test_heterogeneous_run_bit_identical_to_per_task_measure(self):
        sims = [
            small_sim(),
            small_sim(n_samples=30_000),
            small_sim(),
            small_sim(n_samples=30_000),
        ]
        rngs = spawn_rngs(make_rng(21), len(sims))
        tasks = [
            MeasurementTask(sim, sim.make_estimator(), rng)
            for sim, rng in zip(sims, rngs)
        ]
        planned = plan_measurements(tasks).run(MeasurementEngine())
        eng = MeasurementEngine()
        reference_rngs = spawn_rngs(make_rng(21), len(sims))
        for sim, rng, result in zip(sims, reference_rngs, planned):
            expected = eng.measure(sim, sim.make_estimator(), rng=rng)
            assert result.noise_figure_db == expected.noise_figure_db
            assert result.y == expected.y

    def test_run_results_in_task_order(self):
        # Interleave two configs; results must land at their task index.
        sim_a, sim_b = small_sim(), small_sim(n_samples=30_000)
        tasks = [
            MeasurementTask(sim_a, sim_a.make_estimator(), 1),
            MeasurementTask(sim_b, sim_b.make_estimator(), 2),
            MeasurementTask(sim_a, sim_a.make_estimator(), 3),
        ]
        results = plan_measurements(tasks).run(MeasurementEngine())
        eng = MeasurementEngine()
        for task, result in zip(tasks, results):
            expected = eng.measure(task.source, task.estimator, rng=task.rng)
            assert result.noise_figure_db == expected.noise_figure_db

    def test_allow_failures_yields_none(self):
        # A reference far outside the searchable window loses the line.
        bad = MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=3000, reference_ratio=0.001
            )
        )
        ok = small_sim(n_samples=30_000)
        tasks = [
            MeasurementTask(ok, ok.make_estimator(), 1),
            MeasurementTask(bad, bad.make_estimator(), 2),
        ]
        results = plan_measurements(tasks).run(
            MeasurementEngine(), allow_failures=True
        )
        assert results[0] is not None
        assert results[1] is None  # swamped line -> Y < 1 -> failure

    def test_failures_raise_by_default(self):
        from repro.errors import MeasurementError

        bad = MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=3000, reference_ratio=0.001
            )
        )
        tasks = [MeasurementTask(bad, bad.make_estimator(), 2)]
        with pytest.raises(MeasurementError):
            plan_measurements(tasks).run(MeasurementEngine())


class TestEngineSweepsAndPool:
    """What the removed scheduler facade promised, now the engine's own:
    one backend vocabulary, sweeps, and one pool per engine."""

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(backend="threads")

    def test_map_sweep_delegates(self):
        assert MeasurementEngine().map_sweep(square, [2, 3], seed=0) == [
            4,
            9,
        ]

    def test_pool_shared_across_sweeps_and_welch(self):
        sim = small_sim(n_samples=30_000)
        records, rate = sim.acquire_bitstreams(
            ["hot", "cold", "hot", "cold"],
            spawn_rngs(make_rng(5), 4),
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            eng.map_sweep(square, [1, 2], seed=0)
            eng.map_sweep(square, [3], seed=0)
            eng.spectra_of(records, rate, sim.make_estimator())
            assert eng.worker_pool.spawn_count == 1

    def test_close_releases_own_engine_pool(self):
        eng = MeasurementEngine(backend="process", max_workers=1)
        eng.map_sweep(square, [1], seed=0)
        assert eng.worker_pool.active
        eng.close()
        assert not eng.worker_pool.active


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_respawns=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(task_timeout_s=0)

    def test_domain_errors_not_retryable(self):
        policy = RetryPolicy()
        assert not policy.is_retryable(MeasurementError("x"))
        assert not policy.is_retryable(ConfigurationError("x"))
        assert policy.is_retryable(RuntimeError("x"))
        assert policy.is_retryable(OSError("x"))

    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            jitter=0.5,
        )
        assert policy.backoff_s(3, 1) == policy.backoff_s(3, 1)
        assert policy.backoff_s(3, 1) != policy.backoff_s(4, 1)
        # Exponential growth until the cap (jitter adds at most 50%).
        assert policy.backoff_s(0, 1) < policy.backoff_s(0, 5)
        assert policy.backoff_s(0, 10) <= 0.3 * 1.5

    def test_zero_base_is_free(self):
        assert RetryPolicy(backoff_base_s=0.0).backoff_s(0, 3) == 0.0


#: Fast-recovery policy for the fault tests (no multi-second backoffs).
_FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


class TestFaultTolerantPool:
    def test_transient_exception_retried_to_success(self, tmp_path):
        policy = RetryPolicy(max_retries=2, **_FAST)
        payloads = [(str(tmp_path), i, 1) for i in range(3)]
        with WorkerPool(max_workers=2, policy=policy) as pool:
            outcome = pool.run(flaky_worker, payloads)
        assert outcome.ok
        assert outcome.results == [0, 10, 20]
        assert outcome.retries == 3  # each task failed exactly once
        assert outcome.attempts == 6

    def test_domain_error_never_retried(self, tmp_path):
        policy = RetryPolicy(max_retries=5, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            with pytest.raises(MeasurementError):
                pool.map(domain_error_worker, [(str(tmp_path), 0)])
        # One call, no retries: deterministic failures replay identically.
        assert os.path.getsize(tmp_path / "task0.calls") == 1

    def test_retries_exhausted_raises_original(self, tmp_path):
        policy = RetryPolicy(max_retries=1, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            with pytest.raises(RuntimeError, match="transient failure"):
                pool.map(flaky_worker, [(str(tmp_path), 0, 10)])

    def test_dead_letter_records_attempts(self, tmp_path):
        policy = RetryPolicy(max_retries=1, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            outcome = pool.run(flaky_worker, [(str(tmp_path), 0, 10)])
        assert not outcome.ok
        assert outcome.results == [None]
        [failure] = outcome.dead
        assert failure.kind == "exception"
        assert failure.index == 0
        assert failure.attempts == 2  # initial + 1 retry
        assert "transient failure" in failure.error
        assert failure.describe()["kind"] == "exception"

    def test_worker_crash_recovered(self, tmp_path):
        policy = RetryPolicy(max_retries=2, **_FAST)
        payloads = [(str(tmp_path), i, 1 if i == 0 else 0) for i in range(3)]
        with WorkerPool(max_workers=2, policy=policy) as pool:
            outcome = pool.run(crashy_worker, payloads)
        assert outcome.ok
        assert outcome.results == [100, 101, 102]
        assert outcome.respawns >= 1

    def test_repeated_breaks_mid_retry_recovered(self, tmp_path):
        # The old pool retried a broken batch exactly once; a second
        # break escaped.  The respawn budget makes this configurable.
        policy = RetryPolicy(max_retries=4, max_respawns=4, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            outcome = pool.run(crashy_worker, [(str(tmp_path), 0, 2)])
        assert outcome.ok
        assert outcome.results == [100]
        assert outcome.respawns >= 2

    def test_respawn_budget_exhaustion_dead_letters(self, tmp_path):
        policy = RetryPolicy(max_retries=10, max_respawns=0, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            outcome = pool.run(crashy_worker, [(str(tmp_path), 0, 100)])
            assert not outcome.ok
            assert outcome.dead[0].kind == "pool"
            with pytest.raises(ExecutionError, match="respawn budget"):
                pool.map(crashy_worker, [(str(tmp_path), 1, 100)])

    def test_always_crashing_task_dead_letters_as_crash(self, tmp_path):
        policy = RetryPolicy(max_retries=1, max_respawns=10, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            outcome = pool.run(crashy_worker, [(str(tmp_path), 0, 100)])
        assert not outcome.ok
        assert outcome.dead[0].kind == "crash"
        assert outcome.dead[0].attempts == 2

    def test_hung_worker_killed_and_retried(self, tmp_path):
        policy = RetryPolicy(max_retries=2, task_timeout_s=1.5, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            outcome = pool.run(hangy_worker, [(str(tmp_path), 0, 60.0)])
        assert outcome.ok
        assert outcome.results == [200]
        assert outcome.timeouts == 1
        assert outcome.respawns >= 1

    def test_short_hang_without_timeout_still_finishes(self, tmp_path):
        # Without hung-worker detection a hang is just slow, not fatal.
        with WorkerPool(max_workers=1) as pool:
            assert pool.map(hangy_worker, [(str(tmp_path), 0, 0.2)]) == [200]

    def test_per_call_policy_overrides_pool_policy(self, tmp_path):
        strict = RetryPolicy(max_retries=0, **_FAST)
        lenient = RetryPolicy(max_retries=3, **_FAST)
        with WorkerPool(max_workers=1, policy=strict) as pool:
            outcome = pool.run(
                flaky_worker, [(str(tmp_path), 0, 1)], policy=lenient
            )
            assert outcome.ok
            with pytest.raises(RuntimeError):
                pool.map(flaky_worker, [(str(tmp_path), 1, 1)])

    def test_telemetry_accumulates_across_calls(self, tmp_path):
        policy = RetryPolicy(max_retries=2, **_FAST)
        with WorkerPool(max_workers=1, policy=policy) as pool:
            pool.run(flaky_worker, [(str(tmp_path), 0, 1)])
            pool.run(flaky_worker, [(str(tmp_path), 1, 1)])
            assert pool.telemetry.attempts == 4
            assert pool.telemetry.retries == 2
            assert pool.telemetry.dead == []

    def test_results_keep_order_under_retries(self, tmp_path):
        policy = RetryPolicy(max_retries=2, **_FAST)
        payloads = [(str(tmp_path), i, i % 2) for i in range(6)]
        with WorkerPool(max_workers=3, policy=policy) as pool:
            assert pool.map(flaky_worker, payloads) == [
                i * 10 for i in range(6)
            ]


class TestInjectedPoolFaults:
    def test_injected_exception_retried_and_logged(self):
        plan = FaultPlan(task_exception=1.0, max_per_site=2)
        policy = RetryPolicy(max_retries=3, **_FAST)
        with inject(plan) as injector:
            with WorkerPool(max_workers=2, policy=policy) as pool:
                outcome = pool.run(abs, [-1, -2, -3])
        assert outcome.ok
        assert outcome.results == [1, 2, 3]
        assert injector.counts() == {"task_exception": 2}
        assert outcome.retries == 2

    def test_injected_crash_recovered(self):
        plan = FaultPlan(worker_crash=1.0, max_per_site=1)
        policy = RetryPolicy(max_retries=3, **_FAST)
        with inject(plan) as injector:
            with WorkerPool(max_workers=2, policy=policy) as pool:
                assert pool.map(abs, [-1, -2]) == [1, 2]
        assert injector.counts() == {"worker_crash": 1}

    def test_injected_hang_detected_by_timeout(self):
        plan = FaultPlan(worker_hang=1.0, max_per_site=1, hang_seconds=60.0)
        policy = RetryPolicy(max_retries=3, task_timeout_s=1.5, **_FAST)
        with inject(plan) as injector:
            with WorkerPool(max_workers=1, policy=policy) as pool:
                outcome = pool.run(abs, [-5])
        assert outcome.ok and outcome.results == [5]
        assert outcome.timeouts == 1
        assert injector.counts() == {"worker_hang": 1}


class TestRunReport:
    def _mixed_tasks(self):
        good = small_sim(n_samples=30_000)
        # A different nperseg keeps the doomed device out of the good
        # batch; the swamped reference line fails its measurement.
        bad = MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=1500, reference_ratio=0.001
            )
        )
        return [
            MeasurementTask(good, good.make_estimator(), 1),
            MeasurementTask(good, good.make_estimator(), 2),
            MeasurementTask(bad, bad.make_estimator(), 3),
        ]

    def test_clean_run_reports_ok(self):
        tasks = self._mixed_tasks()[:2]
        report = plan_measurements(tasks).run_report(MeasurementEngine())
        assert report.ok
        assert all(r is not None for r in report.results)
        assert [g.status for g in report.groups] == ["ok"]
        assert report.wall_s > 0
        assert all(g.wall_s > 0 for g in report.groups)

    def test_failed_group_degrades_gracefully(self):
        # The bad singleton group fails terminally; the batched good
        # group must still complete and scatter its results.
        report = plan_measurements(self._mixed_tasks()).run_report(
            MeasurementEngine()
        )
        assert not report.ok
        assert report.n_failed_groups == 1
        assert report.results[0] is not None
        assert report.results[1] is not None
        assert report.results[2] is None
        failed = [g for g in report.groups if g.status == "failed"]
        assert "MeasurementError" in failed[0].error

    def test_describe_is_json_ready(self):
        import json

        report = plan_measurements(self._mixed_tasks()).run_report(
            MeasurementEngine()
        )
        doc = json.loads(json.dumps(report.describe()))
        assert doc["n_measured"] == 2
        assert doc["ok"] is False

    def test_results_match_plain_run(self):
        tasks = self._mixed_tasks()[:2]
        report = plan_measurements(tasks).run_report(MeasurementEngine())
        plain = plan_measurements(tasks).run(MeasurementEngine())
        for a, b in zip(report.results, plain):
            assert a.noise_figure_db == b.noise_figure_db

    def test_resume_without_store_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_measurements(self._mixed_tasks()[:1]).run_report(
                MeasurementEngine(), resume=True
            )

    def test_failed_group_keeps_its_exception_out_of_equality(self):
        from dataclasses import replace

        report = plan_measurements(self._mixed_tasks()).run_report(
            MeasurementEngine()
        )
        [failed] = [g for g in report.groups if g.status == "failed"]
        assert isinstance(failed.exception, MeasurementError)
        assert failed == replace(failed, exception=None)
        assert "exception" not in failed.describe()

    def _failing_first_plan(self, tmp_path):
        """A store-backed plan whose first group fails, then a good one."""
        bad = MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=1500, reference_ratio=0.001
            )
        )
        good = small_sim(n_samples=30_000)
        tasks = [
            MeasurementTask(bad, bad.make_estimator(), 3),
            MeasurementTask(bad, bad.make_estimator(), 4),
            MeasurementTask(good, good.make_estimator(), 1),
            MeasurementTask(good, good.make_estimator(), 2),
        ]
        engine = MeasurementEngine(store=ResultStore(tmp_path / "store"))
        plan = plan_measurements(tasks)
        assert [g.indices for g in plan.groups] == [(0, 1), (2, 3)]
        return engine, plan

    def test_run_persists_completed_groups_then_raises(self, tmp_path):
        # The failing group runs first; run still measures and persists
        # the group after it, then raises the original domain error.
        engine, plan = self._failing_first_plan(tmp_path)
        with pytest.raises(MeasurementError):
            plan.run(engine)
        stored = [
            engine.store.get_result(
                engine.task_key(t.source, t.estimator, t.rng)
            )
            for t in plan.tasks
        ]
        assert [r is not None for r in stored] == [False, False, True, True]
        good = plan.tasks[3]
        expected = MeasurementEngine().measure(
            good.source, good.estimator, rng=2
        )
        assert stored[3].noise_figure_db == expected.noise_figure_db

    def test_resume_after_failed_run_serves_completed_groups(self, tmp_path):
        engine, plan = self._failing_first_plan(tmp_path)
        with pytest.raises(MeasurementError):
            plan.run(engine)
        report = plan.run_report(engine, allow_failures=True, resume=True)
        assert report.cached_tasks == 2
        assert [g.n_tasks for g in report.groups] == [2]
        assert [r is not None for r in report.results] == [
            False, False, True, True
        ]

    def test_run_hook_error_stops_at_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        engine = MeasurementEngine(store=store)
        sim = small_sim(n_samples=30_000)
        tasks = [
            MeasurementTask(sim, sim.make_estimator(), i) for i in range(4)
        ]

        def stop(gi, n):
            raise RuntimeError("drain")

        with pytest.raises(RuntimeError, match="drain"):
            plan_measurements(tasks, max_group_size=2).run(
                engine, on_group_end=stop
            )
        stored = [
            store.has_result(engine.task_key(t.source, t.estimator, t.rng))
            for t in tasks
        ]
        assert stored == [True, True, False, False]

    def test_run_base_exception_stops_at_once(self):
        sim = small_sim(n_samples=30_000)
        interrupting = InterruptingSource(sim)
        tasks = [
            MeasurementTask(interrupting, sim.make_estimator(), 1),
            MeasurementTask(interrupting, sim.make_estimator(), 2),
        ]
        with pytest.raises(KeyboardInterrupt):
            plan_measurements(tasks).run(MeasurementEngine())
        assert interrupting.calls == 1


class TestEnginePoolLifetime:
    def test_serial_engine_has_no_pool(self):
        assert MeasurementEngine().worker_pool is None

    def test_engine_pool_lazy_and_persistent(self):
        with MeasurementEngine(backend="process", max_workers=1) as eng:
            pool = eng.worker_pool
            assert pool is not None and not pool.active
            eng.map_sweep(square, [1, 2], seed=0)
            eng.map_sweep(square, [3], seed=0)
            assert pool.spawn_count == 1
        assert not pool.active

    def test_pool_survives_a_failed_screen(self):
        # A failed screen leaves the engine's pool to the engine's own
        # close(): the next lot reuses the workers instead of spawning.
        from repro.experiments.production import run_production

        bad = MatlabSimulation(
            MatlabSimConfig(
                n_samples=30_000, nperseg=3000, reference_ratio=0.001
            )
        )
        bad_task = MeasurementTask(bad, bad.make_estimator(), 2)
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            first = run_production(n_devices=4, n_samples=2**14, engine=eng)
            with pytest.raises(MeasurementError):
                plan_measurements([bad_task]).run(eng)
            again = run_production(n_devices=4, n_samples=2**14, engine=eng)
            assert eng.worker_pool.spawn_count == 1
            assert eng.worker_pool.active
        assert again.measured_nf_db == first.measured_nf_db

    def test_vectorized_backend_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementEngine(backend="vectorized")

    def test_spectra_and_single_measure_stay_in_process(self):
        sim = small_sim(n_samples=30_000)
        records, rate = sim.acquire_bitstreams(
            ["hot", "cold"] * 3, spawn_rngs(make_rng(5), 6)
        )
        with MeasurementEngine(backend="process", max_workers=2) as eng:
            eng.spectra_of(records, rate, sim.make_estimator())
            eng.measure(sim, sim.make_estimator(), rng=1)
            assert eng.worker_pool.spawn_count == 0

    def test_sweep_domain_error_reaches_caller(self):
        with MeasurementEngine(backend="process", max_workers=1) as eng:
            with pytest.raises(MeasurementError, match="out of range"):
                eng.map_sweep(reject_task, [4], seed=0)
            assert eng.worker_pool.telemetry.retries == 0


class TestChunkedPlanning:
    def test_max_group_size_splits_groups(self):
        sim = small_sim()
        tasks = [
            MeasurementTask(sim, sim.make_estimator(), i) for i in range(5)
        ]
        plan = plan_measurements(tasks, max_group_size=2)
        assert plan.max_group_size == 2
        assert [len(g.indices) for g in plan.groups] == [2, 2, 1]
        # Chunking preserves task order within the compatible set.
        assert [g.indices for g in plan.groups] == [(0, 1), (2, 3), (4,)]

    def test_bad_max_group_size_rejected(self):
        sim = small_sim()
        with pytest.raises(ConfigurationError):
            plan_measurements(
                [MeasurementTask(sim, sim.make_estimator(), 1)],
                max_group_size=0,
            )

    def test_chunked_run_bit_identical_to_unchunked(self):
        def build_tasks():
            sim = small_sim()
            return [
                MeasurementTask(sim, sim.make_estimator(), i)
                for i in range(4)
            ]

        engine = MeasurementEngine()
        whole = plan_measurements(build_tasks()).run(engine)
        chunked = plan_measurements(build_tasks(), max_group_size=1).run(
            engine
        )
        for a, b in zip(whole, chunked):
            assert a.noise_figure_db == b.noise_figure_db
            assert a.y == b.y

    def test_on_group_end_fires_per_sub_batch(self):
        sim = small_sim()
        tasks = [
            MeasurementTask(sim, sim.make_estimator(), i) for i in range(5)
        ]
        calls = []
        plan_measurements(tasks, max_group_size=2).run(
            MeasurementEngine(),
            on_group_end=lambda gi, n: calls.append((gi, n)),
        )
        assert calls == [(0, 3), (1, 3), (2, 3)]

    def test_run_report_supports_checkpoint_hook(self):
        sim = small_sim()
        tasks = [
            MeasurementTask(sim, sim.make_estimator(), i) for i in range(4)
        ]
        calls = []
        report = plan_measurements(tasks, max_group_size=2).run_report(
            MeasurementEngine(),
            on_group_end=lambda gi, n: calls.append(gi),
        )
        assert len([r for r in report.results if r is not None]) == 4
        assert len(report.groups) == 2
        assert calls == [0, 1]


class TestPerfbenchNames:
    """``MeasurementScheduler`` and ``scheduler=`` stay only because the
    benchmark harness calls them; both are spellings of the engine."""

    def test_scheduler_function_builds_an_engine(self, tmp_path):
        from repro.engine.scheduler import MeasurementScheduler
        from repro.experiments.production import (
            run_production,
            run_production_retest,
        )

        lot = dict(n_devices=4, n_samples=2**14, seed=11)
        engine = MeasurementScheduler(
            backend="process",
            max_workers=2,
            rng_mode="philox",
            store=ResultStore(tmp_path / "store"),
        )
        with engine:
            assert type(engine) is MeasurementEngine
            via_alias = run_production(scheduler=engine, **lot)
            direct = run_production(engine=engine, **lot)
            with pytest.raises(ConfigurationError):
                run_production(engine=engine, scheduler=engine, **lot)
            with pytest.raises(ConfigurationError):
                run_production_retest(engine=engine, scheduler=engine, **lot)
        serial = run_production(
            engine=MeasurementEngine(rng_mode="philox"), **lot
        )
        assert via_alias.measured_nf_db == direct.measured_nf_db
        assert via_alias.measured_nf_db == serial.measured_nf_db
