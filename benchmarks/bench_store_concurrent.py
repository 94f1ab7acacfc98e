"""Benchmark (extension): concurrent writers sharing one store.

Two whole producer processes screen disjoint lots into one shared
``ResultStore`` — the multi-writer shape production sweeps actually
run.  Measured against the same two lots written back-to-back by a
single process:

* **Concurrent vs sequential wall-clock.**  Two processes writing at
  once should approach the single-writer sum on multi-core hosts
  (acceptance bar ``BENCH_STORE_MIN_CONCURRENT_SPEEDUP``, asserted
  only when more than one CPU is available — store writes are
  CPU-bound through serialization, so a single core serializes them
  no matter how many processes race).
* **Convergence.**  Asserted on every host: the shared store holds
  each lot's results exactly once, every payload reads back and
  verifies, and nothing was quarantined.

Results merge into ``BENCH_engine.json`` under ``"store_concurrent"``.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

from conftest import envinfo, run_once

from repro.store import ResultStore
from repro.reporting.tables import render_table

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Devices per writer; the two writers use disjoint seeds, so the
#: shared store converges to the union of both lots.
N_DEVICES = 8
N_SAMPLES = 2**14
NPERSEG = 2048
SEEDS = (3001, 3002)

#: Two concurrent writers must beat the same work run sequentially by
#: this factor on multi-core hosts (2.0 would be perfect scaling;
#: process startup eats some of it).
MIN_CONCURRENT_SPEEDUP = float(
    os.environ.get("BENCH_STORE_MIN_CONCURRENT_SPEEDUP", "1.2")
)

WRITER_SCRIPT = """\
import sys
from repro.engine import MeasurementEngine, ResultStore
from repro.experiments.production import run_production

with MeasurementEngine(store=ResultStore(sys.argv[1])) as engine:
    run_production(
        n_devices={n_devices},
        n_samples={n_samples},
        nperseg={nperseg},
        seed=int(sys.argv[2]),
        engine=engine,
    )
""".format(n_devices=N_DEVICES, n_samples=N_SAMPLES, nperseg=NPERSEG)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def _writer(store_dir: pathlib.Path, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT, str(store_dir), str(seed)],
        env=_env(),
        cwd=REPO_ROOT,
    )


def _run_writers(store_dir: pathlib.Path, concurrent: bool) -> float:
    start = time.perf_counter()
    if concurrent:
        children = [_writer(store_dir, seed) for seed in SEEDS]
        for child in children:
            assert child.wait(timeout=600.0) == 0
    else:
        for seed in SEEDS:
            assert _writer(store_dir, seed).wait(timeout=600.0) == 0
    return time.perf_counter() - start


def test_store_concurrent(benchmark, emit):
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_store_conc_"))
    n_cpus = os.cpu_count() or 1
    try:
        t_sequential = _run_writers(workdir / "sequential", concurrent=False)

        def _concurrent():
            return _run_writers(workdir / "shared", concurrent=True)

        t_concurrent = run_once(benchmark, _concurrent)
        speedup = t_sequential / t_concurrent

        # Convergence: the shared store is the union of both lots and
        # every payload verifies.
        shared = ResultStore(workdir / "shared")
        walk = shared.index()
        assert len(walk.by_kind("results")) == 2 * N_DEVICES
        assert len(walk.by_kind("outcomes")) == len(SEEDS)
        for entry in walk:
            assert shared.read_meta(entry.kind, entry.key) is not None
        assert shared.quarantine_log == []

        emit(
            "store_concurrent",
            render_table(
                ["stage", "seconds", "detail", "speedup"],
                [
                    [
                        "sequential writers",
                        t_sequential,
                        f"2 x {N_DEVICES} devices, 1 process",
                        "-",
                    ],
                    [
                        "concurrent writers",
                        t_concurrent,
                        f"2 x {N_DEVICES} devices, 2 processes",
                        f"{speedup:.2f}x",
                    ],
                ],
                title=(
                    f"Concurrent store writers - 2 lots x {N_DEVICES} "
                    f"devices, {N_SAMPLES} samples ({n_cpus} CPUs)"
                ),
            ),
        )

        bench_path = REPO_ROOT / "BENCH_engine.json"
        try:
            payload = json.loads(bench_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}  # self-heal a missing or truncated file
        payload["store_concurrent"] = {
            "n_cpus": n_cpus,
            "env": envinfo(),
            "workload": {
                "n_writers": len(SEEDS),
                "n_devices_per_writer": N_DEVICES,
                "n_samples": N_SAMPLES,
                "nperseg": NPERSEG,
            },
            "sequential_seconds": round(t_sequential, 4),
            "concurrent_seconds": round(t_concurrent, 4),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_CONCURRENT_SPEEDUP,
            "asserted": n_cpus > 1,
            "converged": True,
            "index_consistent": True,
        }
        bench_path.write_text(json.dumps(payload, indent=2) + "\n")

        if n_cpus > 1:
            assert speedup >= MIN_CONCURRENT_SPEEDUP
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
