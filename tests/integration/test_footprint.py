"""Integration: what a lot costs a process beyond its arithmetic.

The compat chain filters records with ``scipy.signal``
(:mod:`repro.signals.filters`); philox synthesis never does.  A philox
lot on a process engine must therefore leave the module out of the
parent and of every pool worker, and a compat process engine must load
it in the parent before its pool forks, so every worker inherits it
instead of importing it again.

A lot device's acquisition works in pooled scratch
(:data:`repro.buffers.default_pool`), so a steady-state device must not
fault its records' pages in afresh.

Each check runs in a fresh interpreter: this test process already has
``scipy.signal`` loaded, and its heap history is not a lot's.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Runs one 4-device lot on a 2-worker process engine and prints, as
#: JSON, where ``scipy.signal`` is loaded: in the parent before the
#: pool forks and after the lot, and in every worker before and after.
SCRIPT = '''
import json, os, sys, tempfile, time

from repro import MeasurementEngine
from repro.experiments.production import run_production


def probe(barrier_dir):
    """Pool task: this worker's pid and whether it has scipy.signal.

    Every task checks in and waits for the other, so the two tasks
    run on the two workers, never both on one.
    """
    open(os.path.join(barrier_dir, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30.0
    while len(os.listdir(barrier_dir)) < 2:
        if time.monotonic() > deadline:
            raise TimeoutError("a worker never took its probe")
        time.sleep(0.005)
    return os.getpid(), "scipy.signal" in sys.modules


def probe_workers(pool):
    with tempfile.TemporaryDirectory() as barrier_dir:
        found = dict(pool.map(probe, [barrier_dir] * 2))
    assert len(found) == 2, found
    return sorted(found.values())


engine = MeasurementEngine(
    backend="process", max_workers=2, rng_mode=sys.argv[1]
)
pool = engine.worker_pool
report = {
    "parent_before_fork": "scipy.signal" in sys.modules,
    "forked": pool.active,
    "workers_before_lot": probe_workers(pool),
}
lot = run_production(
    n_devices=4, n_samples=2**14, nperseg=2048, seed=2005, engine=engine
)
report["parent"] = "scipy.signal" in sys.modules
report["workers"] = probe_workers(pool)
report["spawns"] = pool.spawn_count
report["n_devices"] = len(lot.measured_nf_db)
engine.close()
print(json.dumps(report))
'''


def _footprint(rng_mode: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, rng_mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["n_devices"] == 4
    assert report["spawns"] == 1  # every probe ran on the lot's pool
    assert not report["forked"]
    return report


@pytest.mark.parametrize("rng_mode, loaded", [("philox", False), ("compat", True)])
def test_scipy_signal_loads_only_for_compat_lots(rng_mode, loaded):
    report = _footprint(rng_mode)
    assert report["parent_before_fork"] is loaded
    assert report["parent"] is loaded
    assert report["workers_before_lot"] == [loaded, loaded]
    assert report["workers"] == [loaded, loaded]


#: Measures two 6-device chunks of 2**17-sample lot devices serially,
#: and prints the minor page faults per device of the second chunk (the
#: first warms the scratch pools up).
FAULTS_SCRIPT = '''
import json, resource, sys

from repro import MeasurementEngine
from repro.experiments.production import _draw_lot, _lot_tasks

CHUNK = 6
true_values, rngs = _draw_lot(8.0, 1.5, 2 * CHUNK, 2005)
tasks = _lot_tasks(true_values, [2**17] * len(rngs), [8192] * len(rngs), rngs)
engine = MeasurementEngine(rng_mode=sys.argv[1])


def measure(chunk):
    engine.measure_devices(
        [t.source for t in chunk],
        [t.estimator for t in chunk],
        rngs=[t.rng for t in chunk],
    )


measure(tasks[:CHUNK])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
measure(tasks[CHUNK:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"faults_per_device": (after - before) / CHUNK}))
'''


@pytest.mark.parametrize(
    "rng_mode, bound",
    # On a 2-CPU Linux container (glibc malloc, numpy 2.4) a 2**17-sample
    # device faulted about 8,300 pages in compat and 2,700 in philox
    # when every stage allocated its records afresh; with pooled
    # scratch it faulted about 340 and 1,110.  The philox 1,110 were
    # mostly analog_psd's half-megabyte temporaries, re-faulted at
    # glibc's trim threshold; with the chain terms computed once per
    # lot and float32 records it faults about 280.
    [("compat", 1500), ("philox", 700)],
)
def test_lot_device_reuses_its_pages(rng_mode, bound):
    env = {**os.environ, "PYTHONPATH": str(REPO_SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT, rng_mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["faults_per_device"] <= bound, report
