"""Integration: the flagship robustness guarantees.

Two acceptance bars for the fault-tolerant execution stack:

* a production screen run under injected transient faults — worker
  crashes, task exceptions, store truncation/corruption — retries/
  quarantines its way to a population outcome bit-identical to the
  fault-free screen;
* a screen SIGKILLed mid-lot leaves a crash-consistent store, and a
  ``resume=True`` rerun measures only the missing devices and converges
  to the same outcome as an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    MeasurementEngine,
    ResultStore,
    RetryPolicy,
)
from repro.experiments.production import run_production
from repro.faults import inject, resolve_plan

# Fast backoff so injected retries do not dominate wall-clock.
FAST_RETRY = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05)


class TestChaosIdentity:
    """Injected transient faults never change the answer."""

    KW = dict(n_devices=8, n_samples=2**14, seed=2005, report=True)

    def test_screen_under_transient_faults_is_bit_identical(self, tmp_path):
        with MeasurementEngine(
            backend="process", max_workers=4, retry=FAST_RETRY
        ) as engine:
            reference = run_production(engine=engine, **self.KW)
        assert reference.run_report.ok

        plan = resolve_plan("transient", seed=3)
        store = ResultStore(tmp_path / "chaos")
        with inject(plan) as injector:
            with MeasurementEngine(
                backend="process",
                max_workers=4,
                store=store,
                retry=FAST_RETRY,
            ) as engine:
                faulted = run_production(engine=engine, **self.KW)
                # Second pass over the damaged store: corrupted entries
                # quarantine on read and recompute.
                resumed = run_production(
                    engine=engine, resume=True, **self.KW
                )

        # The flagship guarantee: same lot, bit for bit.
        for run in (faulted, resumed):
            assert run.measured_nf_db == reference.measured_nf_db
            assert run.true_nf_db == reference.true_nf_db
            for got, want in zip(run.rows, reference.rows):
                assert got.outcome == want.outcome

        # Faults actually fired, and the reports account for every one.
        assert len(injector.log) > 0
        reported = sum(faulted.run_report.injections.values()) + sum(
            resumed.run_report.injections.values()
        )
        assert reported == len(injector.log)
        # Worker-side faults show up as retries; none escaped.
        task_faults = sum(
            1 for r in injector.log
            if r.site in ("worker_crash", "task_exception")
        )
        total_retries = (
            faulted.run_report.retries + resumed.run_report.retries
        )
        assert total_retries >= task_faults
        assert faulted.run_report.ok and resumed.run_report.ok

        # Store faults surfaced as read-side quarantines on the resume
        # pass, which then recomputed only what was damaged.
        if any(r.site.startswith("store_") for r in injector.log):
            assert len(store.quarantine_log) > 0
        assert resumed.run_report.cached_tasks > 0


CHILD_SCRIPT = """\
import sys
from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.production import run_production

with MeasurementEngine(store=ResultStore(sys.argv[1])) as engine:
    run_production(
        n_devices=9,
        n_samples=2**18,
        nperseg=[8192, 4096, 2048] * 3,
        seed=2005,
        engine=engine,
        resume=True,
    )
"""


class TestCrashConsistentResume:
    """SIGKILL mid-screen, resume, converge."""

    KW = dict(
        n_devices=9,
        n_samples=2**18,
        nperseg=[8192, 4096, 2048] * 3,
        seed=2005,
    )

    def _stored_results(self, root: Path):
        return list(root.glob("results/*/*.npz"))

    def test_sigkill_mid_lot_then_resume_matches_uninterrupted(
        self, tmp_path
    ):
        store_dir = tmp_path / "killed"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, str(store_dir)],
            env=env,
            cwd=Path(__file__).resolve().parents[2],
        )
        try:
            # The mixed-nperseg lot plans into three groups, each
            # committed to the store as it completes.  Kill the child
            # the moment the first group's results land.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail(
                        "screen finished before it could be killed; "
                        "grow the lot"
                    )
                if len(self._stored_results(store_dir)) >= 2:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("no results appeared before the deadline")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGKILL

        # Crash-consistent: some results persisted, not all.
        stored = len(self._stored_results(store_dir))
        assert 0 < stored < self.KW["n_devices"]

        # A SIGKILL mid-write may orphan a tmp file; gc reclaims it and
        # never touches committed payloads.
        removed = ResultStore(store_dir).gc(tmp_grace_s=0.0)
        assert removed["n_tmp"] >= 0
        assert len(self._stored_results(store_dir)) == stored

        # Resume measures only the missing devices...
        with MeasurementEngine(store=ResultStore(store_dir)) as engine:
            resumed = run_production(
                engine=engine, resume=True, report=True, **self.KW
            )
        assert resumed.run_report.cached_tasks == stored
        assert resumed.run_report.ok

        # ...and the merged outcome equals an uninterrupted run.
        uninterrupted = run_production(**self.KW)
        assert resumed.measured_nf_db == uninterrupted.measured_nf_db
        for got, want in zip(resumed.rows, uninterrupted.rows):
            assert got.outcome == want.outcome


WRITER_SCRIPT = """\
import sys
from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.production import run_production

with MeasurementEngine(store=ResultStore(sys.argv[1])) as engine:
    run_production(
        n_devices=6,
        n_samples=2**14,
        nperseg=2048,
        seed=2005,
        engine=engine,
    )
"""


class TestMultiWriterSafety:
    """Two whole processes screening the same lot into one store."""

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        return env

    def test_concurrent_screens_converge_to_one_coherent_store(
        self, tmp_path
    ):
        store_dir = tmp_path / "shared"
        children = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT, str(store_dir)],
                env=self._env(),
                cwd=Path(__file__).resolve().parents[2],
            )
            for _ in range(2)
        ]
        for child in children:
            assert child.wait(timeout=300.0) == 0

        # Content addressing makes the race benign: both writers
        # published the same payloads, the store holds each exactly
        # once, and reads verify.
        store = ResultStore(store_dir)
        walk = store.index()
        assert len(walk.by_kind("results")) == 6
        assert len(walk.by_kind("outcomes")) == 1
        for entry in walk:
            assert store.read_meta(entry.kind, entry.key) is not None
        assert store.quarantine_log == []
