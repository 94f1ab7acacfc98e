"""Benchmark: the supervised measurement service (daemon path).

Three measurements, merged into ``BENCH_engine.json`` under the
``"service"`` key:

* **Service-path overhead.**  The same production lot run directly
  (``run_production`` with an engine + store) and through the full
  daemon path — socket round trip, admission control, write-ahead
  journal append, executor hand-off.  Fresh seeds per round keep the
  store cache out of the ratio; the daemon path must cost within
  ``BENCH_SERVICE_MAX_OVERHEAD`` (default 5%) of the direct one, and
  the lot answer must be bit-identical across both paths.
* **Sustained throughput.**  A burst of distinct interactive
  ``measure`` jobs submitted back to back through one daemon,
  reported as jobs/second.
* **Kill/recovery.**  A real ``repro.cli serve`` subprocess is
  SIGKILLed mid-lot; the bar reports how long a restarted daemon
  takes to come up, replay the journal and land the *same* lot answer
  (store resume + journal replay), versus the uninterrupted runtime.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from conftest import envinfo, run_once

from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.production import run_production
from repro.reporting.tables import render_table
from repro.service import (
    MeasurementService,
    ServiceClient,
    ServiceConfig,
    JobSpec,
    wait_for_server,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent

N_DEVICES = 8
N_SAMPLES = 2**16
NPERSEG = 4096
SEED = 2005
BEST_OF = 3
N_THROUGHPUT_JOBS = 8

#: Daemon-vs-direct overhead ceiling on the lot path; shared CI
#: runners can relax via environment.
MAX_OVERHEAD = float(os.environ.get("BENCH_SERVICE_MAX_OVERHEAD", "0.05"))


def _lot_params(seed):
    return dict(
        n_devices=N_DEVICES,
        n_samples=N_SAMPLES,
        nperseg=NPERSEG,
        seed=seed,
    )


def _start_inprocess_daemon(store_root):
    config = ServiceConfig(
        store_root=str(store_root),
        backend="serial",
        journal_fsync=False,
    )
    service = MeasurementService(config)
    import queue as queue_mod

    ready = queue_mod.Queue()
    thread = threading.Thread(
        target=lambda: service.run(ready.put), daemon=True
    )
    thread.start()
    endpoint = ready.get(timeout=30.0)
    wait_for_server(endpoint["socket"], timeout_s=10.0)
    return service, thread, endpoint["socket"]


def _start_subprocess_daemon(store_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
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
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        env=env,
    )
    wait_for_server(str(store_root / "service.sock"), timeout_s=30.0)
    return proc


def test_service(benchmark, emit):
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_service_"))
    try:
        # --- service-path overhead -----------------------------------
        # Fresh seed per round on both paths: every lot is a cache
        # miss, so the ratio isolates the daemon machinery itself.
        t_direct = None
        direct_nf = None
        for round_i in range(BEST_OF):
            store = ResultStore(workdir / f"direct-{round_i}")
            start = time.perf_counter()
            with MeasurementEngine(store=store) as engine:
                result = run_production(
                    **_lot_params(SEED + round_i),
                    engine=engine,
                    resume=True,
                    report=True,
                    max_group_devices=8,
                )
            elapsed = time.perf_counter() - start
            t_direct = (
                elapsed if t_direct is None else min(t_direct, elapsed)
            )
            if round_i == 0:
                direct_nf = [float(v) for v in result.measured_nf_db]

        service, thread, socket_path = _start_inprocess_daemon(
            workdir / "daemon-store"
        )
        try:
            t_service = None
            service_nf = None

            def one_lot(seed):
                with ServiceClient(socket_path, timeout_s=600.0) as client:
                    return client.submit(
                        JobSpec(kind="lot", params=_lot_params(seed)),
                        wait=True,
                        wait_timeout_s=600.0,
                    )

            run_once(benchmark, one_lot, SEED + 100)
            for round_i in range(BEST_OF):
                start = time.perf_counter()
                ack = one_lot(SEED + round_i)
                elapsed = time.perf_counter() - start
                assert ack["job"]["state"] == "ok"
                t_service = (
                    elapsed
                    if t_service is None
                    else min(t_service, elapsed)
                )
                if round_i == 0:
                    service_nf = ack["job"]["result"]["measured_nf_db"]
            overhead = t_service / t_direct - 1.0
            identical = service_nf == direct_nf

            # --- sustained throughput --------------------------------
            start = time.perf_counter()
            for job_i in range(N_THROUGHPUT_JOBS):
                with ServiceClient(socket_path, timeout_s=120.0) as client:
                    ack = client.submit(
                        JobSpec(
                            kind="measure",
                            params={
                                "seed": 9000 + job_i,
                                "n_samples": 2**14,
                                "nperseg": 2048,
                            },
                        ),
                        wait=True,
                        wait_timeout_s=120.0,
                    )
                assert ack["job"]["state"] == "ok"
            t_burst = time.perf_counter() - start
            throughput = N_THROUGHPUT_JOBS / t_burst
        finally:
            service.request_drain()
            thread.join(timeout=60.0)

        # --- kill / recovery -----------------------------------------
        kill_store = workdir / "kill-store"
        kill_spec = JobSpec(kind="lot", params=_lot_params(SEED + 500))
        proc = _start_subprocess_daemon(kill_store)
        try:
            with ServiceClient(
                str(kill_store / "service.sock"), timeout_s=30.0
            ) as client:
                client.submit(kill_spec)
            time.sleep(1.0)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        recovery_start = time.perf_counter()
        proc = _start_subprocess_daemon(kill_store)
        try:
            with ServiceClient(
                str(kill_store / "service.sock"), timeout_s=600.0
            ) as client:
                ack = client.submit_resilient(
                    kill_spec, wait=True, wait_timeout_s=600.0
                )
            recovery_s = time.perf_counter() - recovery_start
            assert ack["job"]["state"] == "ok"
            recovered_nf = ack["job"]["result"]["measured_nf_db"]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60.0)
        recovery_identical = recovered_nf == [
            float(v)
            for v in run_production(**_lot_params(SEED + 500)).measured_nf_db
        ]

        rows = [
            ["direct lot", f"{t_direct:.3f}", "-", "-"],
            [
                "service lot",
                f"{t_service:.3f}",
                "socket + journal + queue",
                f"{overhead * 100:+.1f}%",
            ],
            [
                "measure burst",
                f"{t_burst:.3f}",
                f"{N_THROUGHPUT_JOBS} jobs",
                f"{throughput:.1f} jobs/s",
            ],
            [
                "kill/recovery",
                f"{recovery_s:.3f}",
                "SIGKILL mid-lot, restart, resume",
                "identical" if recovery_identical else "DIVERGED",
            ],
        ]
        emit(
            "service",
            render_table(
                ["stage", "seconds", "detail", "vs direct"],
                rows,
                title=(
                    f"Measurement service - {N_DEVICES} x {N_SAMPLES} "
                    f"samples, nperseg {NPERSEG}, best of {BEST_OF}"
                ),
            ),
        )

        bench_path = REPO_ROOT / "BENCH_engine.json"
        try:
            payload = json.loads(bench_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}  # self-heal a missing or truncated file
        payload["service"] = {
            "n_cpus": os.cpu_count(),
            "env": envinfo(),
            "workload": {
                "n_devices": N_DEVICES,
                "n_samples": N_SAMPLES,
                "nperseg": NPERSEG,
                "best_of": BEST_OF,
            },
            "overhead": {
                "direct_seconds": round(t_direct, 4),
                "service_seconds": round(t_service, 4),
                "overhead_fraction": round(overhead, 4),
                "identical": bool(identical),
            },
            "throughput": {
                "n_jobs": N_THROUGHPUT_JOBS,
                "burst_seconds": round(t_burst, 4),
                "jobs_per_second": round(throughput, 2),
            },
            "recovery": {
                "recovery_seconds": round(recovery_s, 4),
                "identical": bool(recovery_identical),
            },
        }
        bench_path.write_text(json.dumps(payload, indent=2) + "\n")

        # Acceptance bars (ISSUE 9): the daemon path is nearly free and
        # a SIGKILLed daemon recovers to the bit-identical answer.
        assert identical
        assert recovery_identical
        assert overhead <= MAX_OVERHEAD
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
