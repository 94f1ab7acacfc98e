"""The repo's benchmark: three closed-loop workloads of the NF BIST stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_screen --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` measures
the end-to-end metrics with tracing off: set-up is sampled
``SETUP_SAMPLES`` times (separate launches) and one launch then runs the
timed window.  ``--trace 1`` instead runs an untraced window and a
traced one, and reports per-layer self times from spans recorded around
the program's public functions (``perfbench/tracer.py``).

End-to-end metrics (gated by the bounds in ``BENCHMARK.json``):

``setup_s``
    median over the launches of the time from launching the workload's
    process (the daemon, in ``service_mix``) to the end of its warm-up op.
``nf_per_s``
    NF results delivered per second of the timed window, retests and
    answers served by the store or the job queue included.
``cpu_s_per_nf``
    CPU seconds per NF of this process, its pool workers and the daemon
    (children are read once they have been reaped).
``peak_rss_mb``
    peak RSS of the program's main process (the daemon in
    ``service_mix``) plus that of each of its pool workers.
``nf_err_db_rms``
    RMS of measured minus analytic NF (lot NFs only in ``service_mix``).

Every workload reports all five.  Op latency medians (``measure_s``,
``lot_s``, ``retest_s``) exist on some workloads only, and a lot median
rests on about seven lots a run, so they are printed but not gated.
Per-layer metrics are per NF delivered in the traced window (``s/nf``,
``count/nf``), so runs of different throughput compare; the service
p50s are medians over jobs (``s/job``) and ratios are as named.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else (per-op
latencies and p90s, failure causes, the stage table, the environment,
a host-speed probe before and after, and the CPU time the hypervisor
stole during the window) is printed above it and saved under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

#: Why each workload is in the benchmark.
WORKLOADS = {
    "paper_screen": (
        "the paper's own experiment at paper scale (1e6 samples, compat "
        "synthesis): Welch and noise synthesis dominate; analog chain, pool, "
        "store and daemon do no work"
    ),
    "production_lot": (
        "24-device lot screen + retest on a store-backed process scheduler: "
        "the analog chain dominates, every device is a store write, "
        "the pool mostly waits"
    ),
    "service_mix": (
        "the daemon under a lot client (1 in 4 a store-served re-screen) and "
        "an interactive measure client (1 in 4 a queue-cached repeat): "
        "protocol, journal, queue and preemption"
    ),
}

#: How each workload loads the program.
LOADS = {
    "paper_screen": "closed loop, 1 caller, back-to-back MeasurementEngine.measure",
    "production_lot": "closed loop, 1 caller, run_production then run_production_retest",
    "service_mix": "closed loop, 2 clients: lots back to back; measure jobs after "
    "exponential think time (mean 0.45 s)",
}

SETUP_SAMPLES = 3
#: A run must end within 180 s; launches share this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "nf_per_s": "1/s",
    "cpu_s_per_nf": "s",
    "peak_rss_mb": "MB",
    "nf_err_db_rms": "dB",
}


class BenchError(RuntimeError):
    pass


def host_probe() -> float:
    """Seconds for a fixed single-threaded numpy loop: host speed.

    BLAS is left out on purpose: its threads take about a second to
    settle in a fresh process, which would make the probe measure
    itself rather than the host.
    """
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 16)
    times = []
    for _ in range(4):  # the first pass pays FFT plans and page faults
        t = time.perf_counter()
        for _ in range(100):
            np.fft.rfft(x)
            np.sort(x)
            np.exp(x)
        times.append(time.perf_counter() - t)
    return statistics.median(times[1:])


def launch(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> dict:
    """One workload process; returns its result document."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f".{workload}-{mode}-{os.getpid()}.json")
    launched_at = time.perf_counter()
    argv = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--launched-at", repr(launched_at), "--out", out,
    ]
    # Own process group: on overrun the daemon and pool workers the launch
    # started are killed with it.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(os.path.join(HERE, ".work"), ignore_errors=True)
        raise BenchError(f"{workload} {mode} launch overran the run budget")
    if proc.returncode != 0 or not os.path.exists(out):
        tail = output.decode("utf-8", "replace")[-3000:]
        raise BenchError(f"{workload} {mode} launch exited {proc.returncode}:\n{tail}")
    with open(out) as fh:
        result = json.load(fh)
    os.unlink(out)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    record = {"workload": workload, "why": WORKLOADS[workload], "load": LOADS[workload],
              "seed": seed, "seconds": seconds, "trace": trace,
              "host_probe_before_s": host_probe()}
    if trace:
        result = launch(workload, "trace", seed, seconds, deadline)
        record.update(result)
        record["metrics"] = result["per_layer"]
    else:
        setups = [
            launch(workload, "setup", seed, seconds, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = launch(workload, "measure", seed, seconds, deadline)
        setups.append(result["setup_s"])
        record.update(result)
        record["setup_samples_s"] = setups
        nfs = max(1, result["nfs"])
        values = {
            "setup_s": statistics.median(setups),
            "nf_per_s": result["nfs"] / result["window_s"],
            "cpu_s_per_nf": result["cpu_s"] / nfs,
            "peak_rss_mb": result["peak_rss_mb"],
            "nf_err_db_rms": result["nf_err_db_rms"],
        }
        record["metrics"] = {
            name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
            for name, v in values.items()
        }
    record["host_probe_after_s"] = host_probe()
    return record


def report(record: dict) -> None:
    """The human-readable view of one workload's run."""
    p = print
    mode = "trace on" if record["trace"] else "trace off"
    p(f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, {mode}) ==")
    p(f"why:  {record['why']}")
    p(f"load: {record['load']}")
    for name, m in record["metrics"].items():
        p(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        samples = " ".join(f"{v:.3f}" for v in record["setup_samples_s"])
        p(f"  setup samples (s): {samples}")
        p(f"  NFs delivered {record['nfs']} in {record['window_s']:.2f} s; "
          f"nf_err over {record['n_nf_err']} NFs; "
          f"CPU time stolen by the hypervisor in the window {record['steal_s']:.2f} s")
    ops = record["traced"] if record["trace"] else record
    for kind, stats in ops["latency"].items():
        name = kind + "_s"
        p(f"  [not gated] {name}_p50 {stats['p50']:.4f} s, "
          f"{name}_p90 {stats['p90']:.4f} s (n={stats['n']})")
    p(f"  ops: {record['attempted']} attempted, {record['failed']} failed")
    for failure in record["failures"][:20]:
        p(f"    FAILED {failure['op']}: {failure['cause']}")
    if record["trace"]:
        p(f"  stage table over {record['wall_s']:.2f} s of wall "
          f"(untraced {record['untraced_nf_per_s']:.3f} NF/s):")
        p(f"    {'row':<20} {'calls':>8} {'self_s':>10} {'share':>8} {'other_threads_s':>16}")
        for row in record["stage_table"]:
            p(f"    {row['row']:<20} {row['calls']:>8} {row['self_s']:>10.4f} "
              f"{100 * row['share']:>7.2f}% {row['other_threads_s']:>16.4f}")
        for kind, phases in record.get("job_join", {}).items():
            parts = ", ".join(f"{ph} p50 {st['p50']:.4f} s" for ph, st in phases.items())
            p(f"  job join {kind} (n={phases['total']['n']}): {parts}")
    env = record.get("env")
    if env:
        blas = env.get("blas", {})
        p(f"  env: nproc {env['nproc']} | python {env['python']} | numpy {env['numpy']} | "
          f"scipy {env['scipy']} | blas {blas.get('name')} {blas.get('version')} "
          f"({blas.get('threads')} threads) | kernels {env['kernels']['kernel_backend']} | "
          f"loadavg {' '.join(f'{v:.2f}' for v in env['loadavg'])}")
    p(f"  host probe: {record['host_probe_before_s']:.4f} s before, "
      f"{record['host_probe_after_s']:.4f} s after")


def save(record: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path = os.path.join(RESULTS, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(record)
            print(f"  saved {os.path.relpath(save(record), ROOT)}")
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
