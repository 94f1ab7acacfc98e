"""Tests for repro.faults: plans, the injector, hooks, directives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_PLANS,
    SITES,
    FaultInjector,
    FaultPlan,
    InjectedTaskError,
    active_injector,
    inject,
    resolve_plan,
)
from repro.faults.injector import (
    faulted_call,
    store_fault,
    task_fault,
)
from repro.faults.plan import SITE_IDS


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert plan.active_sites == ()
        assert all(p == 0.0 for p in plan.probabilities.values())

    @pytest.mark.parametrize("site", SITES)
    def test_bad_probability_rejected(self, site):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{site: 1.5})
        with pytest.raises(ConfigurationError):
            FaultPlan(**{site: -0.1})

    def test_bad_cap_and_hang_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(max_per_site=-1)
        with pytest.raises(ConfigurationError):
            FaultPlan(hang_seconds=0)

    def test_with_seed_rekeys(self):
        plan = FaultPlan(task_exception=0.5)
        rekeyed = plan.with_seed(9)
        assert rekeyed.seed == 9
        assert rekeyed.task_exception == 0.5

    def test_registry_plans_valid(self):
        for name, plan in FAULT_PLANS.items():
            assert isinstance(plan, FaultPlan), name
        assert FAULT_PLANS["none"].active_sites == ()
        assert "worker_crash" in FAULT_PLANS["transient"].active_sites

    def test_resolve_plan(self):
        assert resolve_plan("none") is FAULT_PLANS["none"]
        assert resolve_plan("transient", seed=4).seed == 4
        plan = FaultPlan(worker_hang=0.1)
        assert resolve_plan(plan) is plan
        with pytest.raises(ConfigurationError):
            resolve_plan("nope")

    def test_describe_round_trips_fields(self):
        doc = FaultPlan(seed=3, store_corrupt=0.25).describe()
        assert doc["seed"] == 3
        assert doc["store_corrupt"] == 0.25


class TestInjectorDeterminism:
    def test_site_stream_keys_are_pinned(self):
        # A site's key seeds its decision stream: retiring a site must
        # not shift the others, or chaos runs would draw new faults.
        assert SITE_IDS == {
            "worker_crash": 0,
            "worker_hang": 1,
            "task_exception": 2,
            "store_truncate": 3,
            "store_corrupt": 4,
            "store_lock": 6,
            "index_torn_write": 7,
            "journal_torn_write": 8,
            "client_disconnect": 9,
            "job_deadline": 10,
        }
        assert SITES == tuple(SITE_IDS)
        injector = FaultInjector(FaultPlan(seed=3, store_lock=0.5))
        fired = [injector.lock_directive() for _ in range(32)]
        assert fired == [
            np.random.default_rng((3, 6, seq)).random() < 0.5
            for seq in range(32)
        ]

    def test_same_coordinates_same_decision(self):
        plan = FaultPlan(seed=11, task_exception=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for coords in [(0, i, 1) for i in range(50)]:
            da = a.task_directive(*coords)
            db = b.task_directive(*coords)
            assert (da is None) == (db is None)
            if da is not None:
                assert da.action == db.action

    def test_decisions_independent_of_order(self):
        plan = FaultPlan(seed=11, task_exception=0.5)
        forward = FaultInjector(plan)
        backward = FaultInjector(plan)
        hits_f = {
            i for i in range(40)
            if forward.task_directive(0, i, 1) is not None
        }
        hits_b = {
            i for i in reversed(range(40))
            if backward.task_directive(0, i, 1) is not None
        }
        assert hits_f == hits_b

    def test_retry_draws_fresh(self):
        # With p=1 every attempt faults; with p=0.5 a faulted attempt's
        # retry must not be doomed to the same decision.
        plan = FaultPlan(seed=2, task_exception=0.5)
        injector = FaultInjector(plan)
        outcomes = {
            attempt: injector.task_directive(0, 7, attempt) is not None
            for attempt in range(1, 40)
        }
        assert any(outcomes.values()) and not all(outcomes.values())

    def test_sites_consulted_in_order(self):
        plan = FaultPlan(worker_crash=1.0, task_exception=1.0)
        directive = FaultInjector(plan).task_directive(0, 0, 1)
        assert directive.action == "crash"

    def test_store_directive_keys_on_write_seq(self):
        plan = FaultPlan(seed=5, store_truncate=0.5)
        injector = FaultInjector(plan)
        key = "ab" * 32
        outcomes = {
            seq: injector.store_directive(key, seq) for seq in range(40)
        }
        assert any(v is not None for v in outcomes.values())
        assert any(v is None for v in outcomes.values())

    def test_max_per_site_caps_firing(self):
        plan = FaultPlan(task_exception=1.0, max_per_site=3)
        injector = FaultInjector(plan)
        fired = sum(
            injector.task_directive(0, i, 1) is not None for i in range(10)
        )
        assert fired == 3
        assert injector.counts() == {"task_exception": 3}

    def test_log_records_coordinates(self):
        injector = FaultInjector(FaultPlan(worker_hang=1.0, hang_seconds=5.0))
        directive = injector.task_directive(2, 4, 1)
        assert directive.action == "hang"
        assert directive.hang_seconds == 5.0
        record = injector.log[0]
        assert record.site == "worker_hang"
        assert record.coordinates == (2, 4, 1)
        assert record.sequence == 0

    def test_summary_shape(self):
        injector = FaultInjector(FaultPlan(task_exception=1.0))
        injector.task_directive(0, 0, 1)
        doc = injector.summary()
        assert doc["n_injected"] == 1
        assert doc["by_site"] == {"task_exception": 1}
        assert doc["plan"]["task_exception"] == 1.0


class TestInjectScope:
    def test_idle_hooks_are_inert(self):
        assert active_injector() is None
        assert task_fault(0, 0, 1) is None
        assert store_fault("ab" * 32, 0) is None

    def test_install_and_teardown(self):
        with inject(FaultPlan(task_exception=1.0)) as injector:
            assert active_injector() is injector
            assert task_fault(0, 0, 1) is not None
        assert active_injector() is None

    def test_teardown_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with inject(FaultPlan()):
                raise RuntimeError("boom")
        assert active_injector() is None

    def test_nested_install_rejected(self):
        with inject(FaultPlan()):
            with pytest.raises(RuntimeError):
                with inject(FaultPlan()):
                    pass  # pragma: no cover - never reached

    def test_existing_injector_reused(self):
        injector = FaultInjector(FaultPlan())
        with inject(injector) as installed:
            assert installed is injector


class TestFaultedCall:
    def test_raise_directive(self):
        from repro.faults import FaultDirective

        with pytest.raises(InjectedTaskError):
            faulted_call((FaultDirective("raise"), abs, -3))

    def test_hang_directive_still_returns(self):
        from repro.faults import FaultDirective

        directive = FaultDirective("hang", hang_seconds=0.01)
        assert faulted_call((directive, abs, -3)) == 3

    def test_injected_error_is_retryable(self):
        from repro.engine.scheduler import RetryPolicy
        from repro.errors import MeasurementError

        policy = RetryPolicy()
        assert policy.is_retryable(InjectedTaskError("x"))
        assert not policy.is_retryable(MeasurementError("x"))


class TestStoreLockSites:
    """The PR 8 fault sites: shard/index locks and torn index appends."""

    def test_sites_registered(self):
        assert "store_lock" in SITES
        assert "index_torn_write" in SITES

    def test_hooks_inert_without_injector(self):
        from repro.faults.injector import index_torn_fault, store_lock_fault

        assert active_injector() is None
        assert store_lock_fault() is False
        assert index_torn_fault() is False

    def test_locks_plan_registered(self):
        plan = resolve_plan("locks", seed=3)
        assert plan.store_lock > 0
        assert plan.index_torn_write > 0

    def test_storm_covers_lock_sites(self):
        plan = FAULT_PLANS["storm"]
        assert plan.store_lock > 0
        assert plan.index_torn_write > 0

    def test_lock_directives_deterministic_per_seed(self):
        def draws(seed):
            with inject(FaultPlan(seed=seed, store_lock=0.5,
                                  index_torn_write=0.5)) as injector:
                lock = [injector.lock_directive() for _ in range(16)]
                torn = [injector.index_torn_directive() for _ in range(16)]
            return lock, torn

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_lock_directives_respect_site_cap(self):
        plan = FaultPlan(seed=1, store_lock=1.0, max_per_site=2)
        with inject(plan) as injector:
            fired = sum(injector.lock_directive() for _ in range(10))
        assert fired == 2
