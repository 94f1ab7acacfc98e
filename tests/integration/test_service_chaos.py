"""Integration: the supervised service's flagship crash guarantees.

Two acceptance bars for the job daemon:

* **SIGKILL mid-screen**: concurrent clients submit jobs, the daemon is
  SIGKILLed while a lot is in flight, a restarted daemon replays the
  journal and resumes via the store — the merged outcomes are
  bit-identical to an uninterrupted run, no acknowledged job is lost,
  and no deduped job is computed twice.
* **graceful drain**: SIGTERM under load exits within the drain budget
  with the distinct jobs-dropped exit code, and the journal carries the
  in-flight job to the next daemon.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import MeasurementEngine, MeasurementTask, plan_measurements
from repro.experiments.production import _build_device_bench, run_production
from repro.service import (
    EXIT_JOBS_DROPPED,
    JobJournal,
    JobSpec,
    ServiceClient,
    wait_for_server,
)
from repro.signals.random import make_rng

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: One bulk screen, big enough that a serial daemon is reliably still
#: mid-lot when the kill lands ~1s after submission.
LOT_PARAMS = dict(n_devices=10, n_samples=2**16, nperseg=4096, seed=11)
LOT_SPEC = JobSpec(kind="lot", params=LOT_PARAMS)

MEASURE_PARAMS = dict(
    seed=77, n_samples=2**14, nperseg=2048, true_nf_db=8.0
)
MEASURE_SPEC = JobSpec(kind="measure", params=MEASURE_PARAMS)

DRAIN_GRACE_S = 30.0


@pytest.fixture(scope="module")
def reference_lot():
    """The uninterrupted answer every recovered run must match."""
    result = run_production(**LOT_PARAMS)
    return [float(v) for v in result.measured_nf_db]


@pytest.fixture(scope="module")
def reference_measure():
    bench = _build_device_bench(
        MEASURE_PARAMS["true_nf_db"], MEASURE_PARAMS["n_samples"]
    )
    task = MeasurementTask(
        source=bench,
        estimator=bench.make_estimator(nperseg=MEASURE_PARAMS["nperseg"]),
        rng=make_rng(MEASURE_PARAMS["seed"]),
    )
    return float(
        plan_measurements([task]).run(MeasurementEngine())[0].noise_figure_db
    )


def start_daemon(store_root: Path) -> subprocess.Popen:
    """``repro.cli serve`` as a real subprocess on a Unix socket."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            str(store_root),
            "--backend",
            "serial",
            "--no-fsync",
            "--max-group-devices",
            "2",
            "--drain-grace",
            str(DRAIN_GRACE_S),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        wait_for_server(str(store_root / "service.sock"), timeout_s=30.0)
    except Exception:
        proc.kill()
        raise
    return proc


class TestSigkillRecovery:
    def test_killed_daemon_recovers_bit_identically(
        self, tmp_path, reference_lot, reference_measure
    ):
        store = tmp_path / "store"
        socket_path = str(store / "service.sock")
        daemon = start_daemon(store)
        acks = []
        try:
            # Concurrent clients: two race the SAME lot spec (dedup
            # must collapse them onto one execution) while a third
            # submits an interactive measure probe.
            def submit(spec):
                with ServiceClient(socket_path, timeout_s=30.0) as client:
                    acks.append(client.submit(spec))

            threads = [
                threading.Thread(target=submit, args=(LOT_SPEC,)),
                threading.Thread(target=submit, args=(LOT_SPEC,)),
                threading.Thread(target=submit, args=(MEASURE_SPEC,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(acks) == 3
            lot_verdicts = sorted(
                a["status"] for a in acks if a["key"] == LOT_SPEC.key()
            )
            # No deduped job is computed twice: exactly one admission.
            assert lot_verdicts == ["accepted", "duplicate"]

            # Let the lot get properly underway, then pull the plug.
            time.sleep(1.0)
            daemon.send_signal(signal.SIGKILL)
            assert daemon.wait(timeout=30.0) == -signal.SIGKILL
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30.0)

        # The journal survived the kill with the acknowledged lot still
        # incomplete (it was mid-run) — nothing acknowledged was lost.
        state = JobJournal(store / "service").replay()
        assert LOT_SPEC.key() in state.entries
        incomplete = {entry.key for entry in state.incomplete}
        assert LOT_SPEC.key() in incomplete

        # Restart: replay re-enqueues the incomplete jobs and the store
        # resumes the finished sub-batches.
        daemon = start_daemon(store)
        try:
            with ServiceClient(socket_path, timeout_s=30.0) as client:
                report = client.stats()
                assert report["journal_replayed"] == len(incomplete)
                lot_ack = client.submit_resilient(
                    LOT_SPEC, wait=True, wait_timeout_s=600.0
                )
                measure_ack = client.submit_resilient(
                    MEASURE_SPEC, wait=True, wait_timeout_s=600.0
                )
            assert lot_ack["job"]["state"] == "ok"
            assert measure_ack["job"]["state"] == "ok"
            # The flagship bar: merged outcomes, bit for bit.
            assert (
                lot_ack["job"]["result"]["measured_nf_db"]
                == reference_lot
            )
            assert (
                measure_ack["job"]["result"]["noise_figure_db"]
                == reference_measure
            )
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60.0) == 0

        # Everything acknowledged reached a terminal journal state.
        assert JobJournal(store / "service").replay().incomplete == []


class TestGracefulDrain:
    def test_sigterm_under_load_drains_within_budget(
        self, tmp_path, reference_lot
    ):
        store = tmp_path / "store"
        socket_path = str(store / "service.sock")
        daemon = start_daemon(store)
        try:
            with ServiceClient(socket_path, timeout_s=30.0) as client:
                ack = client.submit(LOT_SPEC)
            assert ack["status"] == "accepted"
            time.sleep(0.5)  # mid-lot
            asked_at = time.monotonic()
            daemon.send_signal(signal.SIGTERM)
            code = daemon.wait(timeout=DRAIN_GRACE_S + 30.0)
            elapsed = time.monotonic() - asked_at
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30.0)

        # Distinct exit code: an acknowledged job did not finish.
        assert code == EXIT_JOBS_DROPPED
        # The drain finished the in-flight sub-batch and stopped well
        # inside the grace budget rather than running the lot out.
        assert elapsed < DRAIN_GRACE_S + 15.0
        state = JobJournal(store / "service").replay()
        assert [entry.key for entry in state.incomplete] == [
            LOT_SPEC.key()
        ]

        # The next daemon picks the job up and lands the same answer.
        daemon = start_daemon(store)
        try:
            with ServiceClient(socket_path, timeout_s=30.0) as client:
                assert client.stats()["journal_replayed"] == 1
                ack = client.submit_resilient(
                    LOT_SPEC, wait=True, wait_timeout_s=600.0
                )
            assert ack["job"]["state"] == "ok"
            assert (
                ack["job"]["result"]["measured_nf_db"] == reference_lot
            )
        finally:
            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=60.0) == 0
