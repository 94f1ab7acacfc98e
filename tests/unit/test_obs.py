"""Tests for repro.obs: registry, tracing, exposition, inertness.

The contract under test is PR 10's tentpole: a process-global metrics
registry and span tracer that are provably inert when disabled (no-op
hooks, zero retained allocations, bit-identical measurement results)
and cheap when enabled (lock-scoped dict updates, bounded ring), with
worker-side registries merging back into the parent so process-backend
totals equal serial totals.
"""

import gc
import json
import logging
import threading
import tracemalloc

import pytest

from repro import obs
from repro.engine import MeasurementEngine, MeasurementTask, plan_measurements
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.obs.export import render_prometheus
from repro.obs.logs import JsonLogFormatter, setup_logging
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
)
from repro.obs.trace import TraceBuffer


@pytest.fixture(autouse=True)
def _obs_sandbox():
    """Every test starts disabled and leaves obs as it found it."""
    was_enabled = obs.enabled()
    obs.disable()
    yield
    obs.disable()
    if was_enabled:
        obs.enable()


def small_sim(n_samples=30_000, nperseg=3000):
    return MatlabSimulation(
        MatlabSimConfig(n_samples=n_samples, nperseg=nperseg)
    )


def _tasks(n=3):
    sim = small_sim()
    return [
        MeasurementTask(sim, sim.make_estimator(), rng)
        for rng in range(1, n + 1)
    ]


def _counting_call(arg):
    """Worker-style payload for the ``_obs_task`` merge test."""
    obs.inc("unit.calls")
    obs.observe("unit.seconds", 0.001 * arg)
    return arg * 2


def _counter(snap, name):
    return sum(
        c["value"] for c in snap["counters"] if c["name"] == name
    )


class TestRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("jobs", tags={"status": "ok"})
        reg.inc("jobs", 2.0, tags={"status": "ok"})
        reg.inc("jobs", tags={"status": "failed"})
        reg.gauge("depth", 7.0)
        reg.observe("latency", 0.003)
        reg.observe("latency", 100.0)  # past the last bucket -> +Inf
        snap = reg.snapshot()
        assert snap["bucket_bounds"] == list(DEFAULT_BUCKETS)
        by_tag = {
            tuple(sorted(c["tags"].items())): c["value"]
            for c in snap["counters"]
        }
        assert by_tag[(("status", "ok"),)] == 3.0
        assert by_tag[(("status", "failed"),)] == 1.0
        assert snap["gauges"][0]["value"] == 7.0
        (hist,) = snap["histograms"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(100.003)
        assert sum(hist["buckets"]) == 2
        assert hist["buckets"][-1] == 1  # the +Inf overflow cell

    def test_thread_safety_totals(self):
        reg = MetricsRegistry()
        n_threads, n_iter = 8, 1000

        def hammer():
            for _ in range(n_iter):
                reg.inc("hits")
                reg.observe("lat", 0.001)

        threads = [
            threading.Thread(target=hammer) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert _counter(snap, "hits") == n_threads * n_iter
        assert snap["histograms"][0]["count"] == n_threads * n_iter

    def test_merge_adds_counters_and_cells(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 2), (b, 3)):
            for _ in range(n):
                reg.inc("hits")
                reg.observe("lat", 0.01)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert _counter(snap, "hits") == 5
        assert snap["histograms"][0]["count"] == 5

    def test_merge_rejects_foreign_buckets(self):
        reg = MetricsRegistry()
        foreign = MetricsRegistry(buckets=(1.0, 2.0))
        foreign.observe("lat", 0.5)
        with pytest.raises(ValueError):
            reg.merge(foreign.snapshot())

    def test_merge_snapshots_helper(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        b.inc("x", 4.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot(), None)
        assert _counter(merged, "x") == 5

    def test_snapshot_and_reset_drains(self):
        reg = MetricsRegistry()
        reg.inc("x")
        snap = reg.snapshot_and_reset()
        assert _counter(snap, "x") == 1
        assert reg.snapshot()["counters"] == []

    def test_diff_snapshots_drops_zero_deltas(self):
        reg = MetricsRegistry()
        reg.inc("before_only")
        reg.observe("lat", 0.01)
        before = reg.snapshot()
        reg.inc("fresh", 2.0)
        reg.observe("lat", 0.02)
        reg.gauge("depth", 3.0)
        after = reg.snapshot()
        delta = diff_snapshots(before, after)
        names = {c["name"] for c in delta["counters"]}
        assert names == {"fresh"}  # unchanged counters drop out
        assert delta["histograms"][0]["count"] == 1
        assert delta["gauges"][0]["value"] == 3.0
        assert diff_snapshots(None, after) == after


class TestDisabledPath:
    def test_hooks_are_noops(self):
        assert not obs.enabled()
        obs.inc("x")
        obs.gauge("g", 1.0)
        obs.observe("h", 0.5)
        obs.trace_event("e", a=1)
        with obs.timed("t"):
            pass
        with obs.trace_span("s", b=2):
            assert obs.current_span_id() is None
        assert obs.registry() is None
        assert obs.snapshot() is None
        assert obs.snapshot_and_reset() is None
        assert obs.trace_events() == []

    def test_disabled_context_managers_are_shared_singletons(self):
        assert obs.timed("a") is obs.timed("b")
        assert obs.trace_span("a") is obs.timed("c")

    def test_disabled_hooks_retain_zero_allocations(self):
        def burst(n):
            for _ in range(n):
                obs.inc("x")
                obs.gauge("g", 1.0)
                obs.observe("h", 0.5, tags=None)
                obs.trace_event("e")
                with obs.timed("t"):
                    pass

        burst(100)  # warm any lazy interning
        tracemalloc.start()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        burst(5000)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        # Nothing the disabled hooks touch may be *retained*; allow a
        # few bytes of interpreter noise, nothing proportional to the
        # 5000 iterations.
        assert after - before <= 512

    def test_enable_disable_round_trip(self):
        obs.enable()
        obs.inc("x")
        assert _counter(obs.snapshot(), "x") == 1
        obs.disable()
        obs.inc("x")
        assert obs.snapshot() is None
        obs.enable()
        assert obs.snapshot()["counters"] == []  # state was dropped


class TestTracing:
    def test_ring_wraparound_keeps_newest(self):
        buf = TraceBuffer(capacity=8)
        for i in range(20):
            buf.record(f"e{i}", "event")
        events = buf.events()
        assert len(events) == 8
        assert [e["name"] for e in events] == [
            f"e{i}" for i in range(12, 20)
        ]
        desc = buf.describe()
        assert desc["recorded"] == 20
        assert desc["dropped"] == 12
        limited = buf.describe(limit=3)
        assert [e["name"] for e in limited["events"]] == [
            "e17", "e18", "e19",
        ]

    def test_spans_nest_and_tag_errors(self):
        obs.enable()
        with obs.trace_span("outer") as outer_id:
            assert obs.current_span_id() == outer_id
            with obs.trace_span("inner") as inner_id:
                assert obs.current_span_id() == inner_id
                obs.trace_event("mid", detail="x")
            assert obs.current_span_id() == outer_id
        assert obs.current_span_id() is None
        with pytest.raises(RuntimeError):
            with obs.trace_span("boom"):
                raise RuntimeError("no")
        events = obs.trace_events()
        by = {(e["name"], e["phase"]): e for e in events}
        assert by[("mid", "event")]["span"] == inner_id
        assert by[("boom", "end")]["tags"] == {"error": "RuntimeError"}
        # Monotonic ordering within the ring.
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)


class TestPrometheusExport:
    def test_render_counters_gauges_histograms(self):
        reg = MetricsRegistry(buckets=(0.1, 1.0))
        reg.inc("store.puts", 3.0, tags={"kind": "results"})
        reg.gauge("service.queue_depth", 2.0)
        reg.observe("op.seconds", 0.05)
        reg.observe("op.seconds", 0.5)
        reg.observe("op.seconds", 5.0)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_store_puts_total counter" in text
        assert 'repro_store_puts_total{kind="results"} 3' in text
        assert "repro_service_queue_depth 2" in text
        assert 'repro_op_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_op_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_op_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_op_seconds_count 3" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("faults", tags={"site": 'a"b\\c\nd'})
        text = render_prometheus(reg.snapshot())
        assert '{site="a\\"b\\\\c\\nd"}' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""


class TestInertness:
    """Obs on/off must not change measurement results."""

    def test_bit_identity_obs_on_off(self):
        with MeasurementEngine(backend="serial") as engine:
            baseline = [
                r.noise_figure_db for r in plan_measurements(_tasks()).run(engine)
            ]
        obs.enable()
        with MeasurementEngine(backend="serial") as engine:
            observed = [
                r.noise_figure_db for r in plan_measurements(_tasks()).run(engine)
            ]
        assert observed == baseline  # bit-identical, not approx
        # ...and the run actually produced telemetry (the planner
        # batches same-shape tasks, so the device-batch counter fires).
        assert _counter(obs.snapshot(), "engine.devices_acquired") == 3


class TestWorkerMerge:
    def test_obs_task_merge_equals_direct_totals(self):
        """The worker wrap + merge path equals one registry doing the
        same operations directly — the worker-merge == serial-totals
        contract at the primitive level."""
        from repro.engine.scheduler import _obs_task

        obs.enable()
        acc = MetricsRegistry()
        results = []
        for arg in (1, 2, 3, 4):
            value, snap = _obs_task((_counting_call, arg))
            results.append(value)
            acc.merge(snap)
        merged = acc.snapshot()
        direct = MetricsRegistry()
        for arg in (1, 2, 3, 4):
            direct.inc("unit.calls")
            direct.observe("unit.seconds", 0.001 * arg)
        expected = direct.snapshot()
        assert results == [2, 4, 6, 8]
        assert _counter(merged, "unit.calls") == _counter(
            expected, "unit.calls"
        )

        def hist(snap, name):
            (h,) = [
                h for h in snap["histograms"] if h["name"] == name
            ]
            return h

        assert (
            hist(merged, "unit.seconds")["buckets"]
            == hist(expected, "unit.seconds")["buckets"]
        )

    def test_process_run_merges_worker_registries(self):
        obs.enable()
        with MeasurementEngine(backend="serial") as engine:
            serial_results = plan_measurements(_tasks()).run(engine)
        obs.reset()
        with MeasurementEngine(
            backend="process", max_workers=2
        ) as engine:
            proc_results = plan_measurements(_tasks()).run(engine)
        proc_snap = obs.snapshot_and_reset()
        assert [r.noise_figure_db for r in proc_results] == [
            r.noise_figure_db for r in serial_results
        ]
        # Worker-side counters came home exactly once: each device is
        # acquired in exactly one worker chunk.
        assert _counter(proc_snap, "engine.devices_acquired") == 3
        # Every dispatch carried a worker-side task timing.
        (task_hist,) = [
            h
            for h in proc_snap["histograms"]
            if h["name"] == "worker.task_seconds"
        ]
        assert task_hist["count"] == _counter(
            proc_snap, "scheduler.dispatches"
        )

    def test_run_report_embeds_obs_delta(self):
        obs.enable()
        with MeasurementEngine(backend="serial") as engine:
            report = plan_measurements(_tasks()).run_report(engine)
        described = report.describe()
        assert described["obs"] is not None
        assert (
            _counter(described["obs"], "engine.devices_acquired") == 3
        )
        assert described["started_at"] <= described["finished_at"]
        assert described["wall_s"] >= 0.0


class TestLogging:
    def test_json_formatter_carries_span_and_job(self):
        obs.enable()
        formatter = JsonLogFormatter()
        with obs.trace_span("job.execute", key="abc") as span_id:
            record = logging.LogRecord(
                "repro.test", logging.WARNING, __file__, 1,
                "journal append failed: %s", ("disk",), None,
            )
            record.job = "abc123"
            line = formatter.format(record)
        payload = json.loads(line)
        assert payload["message"] == "journal append failed: disk"
        assert payload["span"] == span_id
        assert payload["job"] == "abc123"
        assert payload["level"] == "WARNING"

    def test_setup_logging_replaces_handlers(self):
        root = logging.getLogger()
        saved_handlers = root.handlers[:]
        saved_level = root.level
        try:
            h1 = setup_logging(level="info", as_json=False)
            h2 = setup_logging(level="debug", as_json=True)
            assert root.handlers == [h2]
            assert isinstance(h2.formatter, JsonLogFormatter)
            assert root.level == logging.DEBUG
            assert h1 not in root.handlers
            with pytest.raises(ValueError):
                setup_logging(level="chatty")
        finally:
            root.handlers[:] = saved_handlers
            root.setLevel(saved_level)

    def test_env_auto_enable(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = str(
            pathlib.Path(__file__).resolve().parents[2] / "src"
        )
        code = (
            "from repro import obs; import sys;"
            "sys.exit(0 if obs.enabled() else 1)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "REPRO_OBS": "1"},
        )
        assert proc.returncode == 0
