"""One workload process of the benchmark.

``run.py`` launches this script once per set-up sample and once for the
measured (or traced) run::

    python3 perfbench/workloads.py --workload production_lot --seed 7 \
        --seconds 25 --mode measure --launched-at <perf_counter> --out r.json

Modes:

``setup``
    build, warm up, report the set-up time, tear down.
``measure``
    set-up, then a closed-loop timed window with tracing off.
``trace``
    set-up, one untraced window, then the same window again with the
    layer tracer installed (the ratio of the two is ``trace.overhead``).

Every input the program receives is generated here from ``--seed``.
The program runs in this process (``paper_screen``, ``production_lot``)
or in a daemon this process launches and drives over two connections
(``service_mix``).  The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402

WORK = os.path.join(HERE, ".work")

#: Estimator standard deviations at each record length (dB), and how many
#: of them an NF may stray from its analytic value before the op fails.
#: The error is close to normal but has rare gross outliers: in about
#: 20000 lot NFs at 2**17 samples one read 7 sigma high (+5.5 dB), and
#: the same device under 60 other seeds read 0.00 +/- 0.76 dB.  So the
#: tolerance fails gross errors only; nf_err_db_rms tracks accuracy.
SIGMA_PAPER_DB = 0.25  # 1e6 samples, nperseg 1e4
SIGMA_LOT_DB = 0.79  # 2**17 samples, nperseg 8192
SIGMA_MEASURE_DB = 1.13  # 2**16 samples, nperseg 4096
TOL_SIGMAS = 10.0

#: Service measure jobs: 2**16 samples.  At the 2**14 default about one
#: job in 2000 raises (and errors reach +16.9 dB, 7 sigma of its 2.3 dB),
#: so the few hundred jobs of a set of runs would fail ops.
MEASURE_SAMPLES = 2**16
MEASURE_TRUE_NF_DB = 8.0
RESCREEN_EVERY = 4  # one lot in four is a guard-band re-screen
REPEAT_EVERY = 4  # one measure job in four repeats an earlier spec
#: Mean think time of the interactive client: the longest that still
#: leaves at least 10 fresh measure jobs on each side of their median in
#: nearly every 25 s window.  A job takes 0.3 s from submit to result on
#: average (a fresh one 0.4 s, a cached repeat 2 ms; ten seeds, 2 CPUs),
#: so 0.45 s of thinking makes one job per 0.75 s: 33 jobs a window, 25
#: of them fresh, with a spread of about 3 that rarely reaches below 20.
THINK_MEAN_S = 0.45

#: paper_screen's first measure calls in a process run slow (FFT plans,
#: page faults, BLAS thread start-up); after the set-up op it keeps
#: measuring this long before the timed window opens.
PAPER_SETTLE_S = 1.5

# Named streams of the workload seed.
WARMUP, OPS, RESCREEN, MEASURE, THINK, REPEAT = range(6)


def stream(seed: int, name: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), name])


def seeds(seed: int, name: int, n: int = 100000) -> list:
    return [int(s) for s in stream(seed, name).integers(0, 2**31, size=n)]


# ----------------------------------------------------------------------
# Process accounting (Linux /proc)
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list:
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    return text[text.rfind(")") + 2:].split()


def children(pid: int) -> list:
    """Live direct children of ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat(int(entry))[1]) == pid:
                    out.append(int(entry))
            except (OSError, IndexError, ValueError):
                continue
    return out


def proc_cpu(pid: int, reaped_children: bool = False) -> float:
    """CPU seconds of one live process (all its threads)."""
    try:
        f = _stat(pid)
    except OSError:
        return 0.0
    ticks = int(f[11]) + int(f[12])
    if reaped_children:
        ticks += int(f[13]) + int(f[14])
    return ticks / _TICK


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def steal_s() -> float:
    """CPU seconds taken from this machine's CPUs by the hypervisor."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def rusage_cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class CpuMeter:
    """CPU of this process plus its descendants over a window.

    Descendants that are still alive at the end are only counted once
    they are reaped, so :meth:`stop` takes this process's reading and
    :meth:`after_reap` the children's, once the caller has closed the
    pool or drained and reaped the daemon.
    """

    def __init__(self, daemon_pid=None):
        self.daemon_pid = daemon_pid
        self.self0 = rusage_cpu(resource.RUSAGE_SELF)
        self.children0 = rusage_cpu(resource.RUSAGE_CHILDREN)
        self.live0 = self._live()

    def _live(self) -> float:
        if self.daemon_pid is None:
            return sum(proc_cpu(p) for p in children(os.getpid()))
        total = proc_cpu(self.daemon_pid, reaped_children=True)
        return total + sum(proc_cpu(p) for p in children(self.daemon_pid))

    def stop(self) -> None:
        self.self_cpu = rusage_cpu(resource.RUSAGE_SELF) - self.self0

    def after_reap(self) -> float:
        reaped = rusage_cpu(resource.RUSAGE_CHILDREN) - self.children0
        return self.self_cpu + reaped - self.live0


def program_peak_rss_mb(main_pid: int) -> float:
    """Peak RSS of the program's main process plus its live workers."""
    return peak_rss_mb(main_pid) + sum(peak_rss_mb(p) for p in children(main_pid))


def environment() -> dict:
    """What a reader needs to tell host noise from a program change."""
    import scipy

    from repro.kernels import report

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # noqa: BLE001 - best effort across numpy versions
        pass
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "kernels": report(),
        "loadavg": os.getloadavg(),
    }


def _blas_threads():
    """OpenBLAS thread count, read from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


# ----------------------------------------------------------------------
# Op bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """Ops attempted/failed, NFs delivered, errors and latencies."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures = []
        self.nfs = 0
        self.errors = []
        self.latency = {}

    def op(self, kind: str, seconds: float, nfs: int = 0, errors=(), cause=None):
        with self.lock:
            self.attempted += 1
            self.latency.setdefault(kind, []).append(seconds)
            if cause is not None:
                self.failures.append({"op": kind, "cause": cause})
            else:
                self.nfs += nfs
                self.errors.extend(errors)

    def summary(self, window_s: float) -> dict:
        errors = np.asarray(self.errors, dtype=float)
        return {
            "window_s": window_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "nfs": self.nfs,
            "nf_err_db_rms": float(np.sqrt(np.mean(errors**2))) if errors.size else 0.0,
            "n_nf_err": int(errors.size),
            "latency": {k: latency_stats(v) for k, v in self.latency.items()},
        }


def latency_stats(values) -> dict:
    """Median and p90 (nearest rank) with the sample count.

    Only medians of workloads with many ops are steady enough to gate,
    and no percentile is: these are reported, not gated.
    """
    ordered = sorted(values)
    return {
        "n": len(values),
        "p50": float(statistics.median(ordered)) if ordered else 0.0,
        "p90": float(ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]) if ordered else 0.0,
        "samples": [round(v, 5) for v in values],
    }


def check_nfs(measured, analytic, sigma_db: float):
    """NF errors, or the cause that fails the op."""
    errors = []
    for m, a in zip(measured, analytic):
        if not math.isfinite(m):
            return None, f"non-finite NF {m!r}"
        if abs(m - a) > TOL_SIGMAS * sigma_db:
            return None, f"NF {m:.3f} dB vs analytic {a:.3f} dB (> {TOL_SIGMAS:g} sigma)"
        errors.append(m - a)
    return errors, None


def cause_of(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


class InProcess:
    """A workload whose program runs inside this process.

    ``setup`` sets ``setup_done`` when its first (warm-up) op has ended.
    """

    def setup_seconds(self, launched_at: float) -> float:
        return self.setup_done - launched_at

    def main_pid(self) -> int:
        return os.getpid()

    def daemon_pid(self):
        return None

    def final_check(self):
        return None


# ----------------------------------------------------------------------
# paper_screen: back-to-back paper-scale measure calls, one caller
# ----------------------------------------------------------------------
class PaperScreen(InProcess):
    def setup(self, seed: int) -> None:
        from repro import MeasurementEngine
        from repro.experiments.matlab_sim import MatlabSimulation

        self.sim = MatlabSimulation()
        self.estimator = self.sim.make_estimator()
        # Compat synthesis: the philox path's bit-domain Welch runs a complex
        # matmul whose OpenBLAS threads spin on a 2-CPU host.  Run back to
        # back on the same six seeds (25 s runs, 2 CPUs), philox spread
        # 19.5% in NF/s and 17.2% in CPU s per NF (IQR/median), compat
        # 6.9% and 6.5%.
        self.engine = MeasurementEngine(rng_mode="compat")
        self.analytic = self.sim.config.dut_nf_db
        warm = iter(seeds(seed, WARMUP))
        self.engine.measure(self.sim, self.estimator, rng=next(warm))
        self.setup_done = time.perf_counter()
        while time.perf_counter() - self.setup_done < PAPER_SETTLE_S:
            self.engine.measure(self.sim, self.estimator, rng=next(warm))
        self.op_seeds = iter(seeds(seed, OPS))

    def window(self, seconds: float, tally: Tally) -> float:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline:
            s = next(self.op_seeds)
            a = time.perf_counter()
            try:
                with tracer.span("op:measure", op=f"measure-{s}"):
                    nf = self.engine.measure(self.sim, self.estimator, rng=s).noise_figure_db
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                tally.op("measure", time.perf_counter() - a, cause=cause_of(exc))
                continue
            elapsed = time.perf_counter() - a
            errors, cause = check_nfs([nf], [self.analytic], SIGMA_PAPER_DB)
            tally.op("measure", elapsed, nfs=1, errors=errors or (), cause=cause)
        return time.perf_counter() - t0

    def release(self) -> str:
        self.engine.close()
        return ""

    def teardown(self) -> None:
        if hasattr(self, "engine"):
            self.engine.close()


# ----------------------------------------------------------------------
# production_lot: store-backed process scheduler, lot screen + retest
# ----------------------------------------------------------------------
class ProductionLot(InProcess):
    def setup(self, seed: int) -> None:
        from repro.engine.scheduler import MeasurementScheduler
        from repro.store import ResultStore

        self.dir = make_workdir()
        self.sched = MeasurementScheduler(
            backend="process",
            max_workers=2,
            rng_mode="philox",
            store=ResultStore(os.path.join(self.dir, "store")),
        )
        self._one(seeds(seed, WARMUP, 1)[0], None)
        self.setup_done = time.perf_counter()
        self.op_seeds = iter(seeds(seed, OPS))

    def _one(self, lot_seed: int, tally):
        from repro.experiments.production import run_production, run_production_retest

        a = time.perf_counter()
        try:
            with tracer.span("op:lot", op=f"lot-{lot_seed}"):
                lot = run_production(seed=lot_seed, scheduler=self.sched)
        except Exception as exc:  # noqa: BLE001
            if tally is None:
                raise
            tally.op("lot", time.perf_counter() - a, cause=cause_of(exc))
            return
        b = time.perf_counter()
        errors, cause = check_nfs(lot.measured_nf_db, lot.true_nf_db, SIGMA_LOT_DB)
        if tally is not None:
            tally.op("lot", b - a, nfs=lot.n_devices, errors=errors or (), cause=cause)
        try:
            with tracer.span("op:retest", op=f"lot-{lot_seed}"):
                retest = run_production_retest(seed=lot_seed, scheduler=self.sched)
        except Exception as exc:  # noqa: BLE001
            if tally is None:
                raise
            tally.op("retest", time.perf_counter() - b, cause=cause_of(exc))
            return
        c = time.perf_counter()
        cause = None
        if not retest.initial_from_store:
            cause = "retest did not find the screened lot in the store"
        elif retest.initial_nf_db != lot.measured_nf_db:
            cause = "stored screen NFs differ from the screen's own"
        idx = retest.retest_indices
        errors, nf_cause = check_nfs(
            [retest.merged_nf_db[i] for i in idx],
            [retest.true_nf_db[i] for i in idx],
            SIGMA_LOT_DB,
        )
        if tally is None:
            if cause or nf_cause:
                raise RuntimeError(cause or nf_cause)
            return
        tally.op("retest", c - b, nfs=len(idx), errors=errors or (), cause=cause or nf_cause)

    def window(self, seconds: float, tally: Tally) -> float:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline:
            self._one(next(self.op_seeds), tally)
        return time.perf_counter() - t0

    def release(self) -> str:
        self.sched.close()
        return ""

    def teardown(self) -> None:
        if hasattr(self, "sched"):
            self.sched.close()
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# service_mix: the daemon, a lot client and an interactive client
# ----------------------------------------------------------------------
class ServiceMix:
    def __init__(self, traced: bool = False):
        self.traced = traced
        self.daemon = None
        self.cached = 0

    def setup(self, seed: int) -> None:
        from repro.service.protocol import JobSpec

        self.dir = make_workdir()
        self.spans_path = os.path.join(self.dir, "daemon-spans.json")
        argv = [sys.executable, os.path.join(HERE, "serve.py")]
        if self.traced:
            argv += ["--trace", self.spans_path]
        argv += ["serve", "--store", "store"]
        self.log = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.launched_at = time.perf_counter()
        self.daemon = subprocess.Popen(
            argv, cwd=self.dir, stdout=subprocess.PIPE, stderr=self.log
        )
        line = self.daemon.stdout.readline()
        if not line:
            raise RuntimeError("daemon exited before it was ready: " + self.log_tail())
        socket = json.loads(line)["socket"]
        self.address = os.path.relpath(os.path.join(self.dir, socket))
        warm_seed, warm_measure = seeds(seed, WARMUP, 2)
        self.lot_nfs = {}
        lot = self._submit(JobSpec("lot", {"seed": warm_seed}))
        self.warm_lot = (warm_seed, lot["result"]["measured_nf_db"])
        self._submit(JobSpec("measure", self._measure_params(warm_measure)))
        self.setup_done = time.perf_counter()
        self.seed = seed

    def log_tail(self) -> str:
        self.log.flush()
        with open(self.log.name, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def _client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.address, timeout_s=120.0)

    def _submit(self, spec, client=None) -> dict:
        own = client is None
        client = client or self._client()
        try:
            ack = client.submit(spec, wait=True, wait_timeout_s=120.0)
        finally:
            if own:
                client.close()
        job = ack.get("job") or {}
        if job.get("state") != "ok":
            raise RuntimeError(
                f"{spec.kind} job ended {ack.get('status')}/{job.get('state')}: "
                f"{job.get('error') or ack.get('error')}"
            )
        return {"status": ack["status"], "result": job["result"]}

    @staticmethod
    def _measure_params(s: int) -> dict:
        return {"seed": int(s), "n_samples": MEASURE_SAMPLES}

    def _true_nfs(self, lot_seed: int) -> list:
        from repro.experiments.production import _draw_lot

        true, _ = _draw_lot(8.0, 1.5, 24, lot_seed)
        return [float(v) for v in true]

    def _lot_client(self, deadline: float, tally: Tally) -> None:
        from repro.service.protocol import JobSpec

        lot_seeds = iter(seeds(self.seed, OPS))
        picks = stream(self.seed, RESCREEN)
        cold = []
        client = self._client()
        try:
            i = 0
            while time.perf_counter() < deadline:
                i += 1
                rescreen = i % RESCREEN_EVERY == 0 and cold
                if rescreen:
                    lot_seed = cold[int(picks.integers(len(cold)))]
                    bands = sorted(round(float(x), 6) for x in picks.uniform(0, 3, 3))
                    spec = JobSpec("lot", {"seed": lot_seed, "guardband_sigmas": bands})
                    kind = "rescreen"
                else:
                    lot_seed = next(lot_seeds)
                    spec = JobSpec("lot", {"seed": lot_seed})
                    kind = "lot"
                a = time.perf_counter()
                try:
                    with tracer.span(f"client:{kind}", op=spec.key()):
                        nfs = self._submit(spec, client)["result"]["measured_nf_db"]
                except Exception as exc:  # noqa: BLE001
                    tally.op(kind, time.perf_counter() - a, cause=cause_of(exc))
                    client.close()
                    continue
                elapsed = time.perf_counter() - a
                if rescreen:
                    same = nfs == self.lot_nfs[lot_seed]
                    tally.op(kind, elapsed, nfs=len(nfs), cause=None if same else
                             "re-screen NFs differ from the lot's first screen")
                    continue
                errors, cause = check_nfs(nfs, self._true_nfs(lot_seed), SIGMA_LOT_DB)
                tally.op(kind, elapsed, nfs=len(nfs), errors=errors or (), cause=cause)
                if cause is None:
                    cold.append(lot_seed)
                    self.lot_nfs[lot_seed] = nfs
        finally:
            client.close()

    def _measure_client(self, deadline: float, tally: Tally) -> None:
        from repro.service.protocol import JobSpec

        measure_seeds = iter(seeds(self.seed, MEASURE))
        think = stream(self.seed, THINK)
        picks = stream(self.seed, REPEAT)
        done = []
        self.cached = 0
        client = self._client()
        try:
            j = 0
            while True:
                pause = float(think.exponential(THINK_MEAN_S))
                time.sleep(max(0.0, min(pause, deadline - time.perf_counter())))
                if time.perf_counter() >= deadline:
                    break
                j += 1
                repeat = j % REPEAT_EVERY == 0 and done
                if repeat:
                    s, expected = done[int(picks.integers(len(done)))]
                    kind = "repeat"
                else:
                    s, expected = next(measure_seeds), None
                    kind = "measure"
                spec = JobSpec("measure", self._measure_params(s))
                a = time.perf_counter()
                try:
                    with tracer.span(f"client:{kind}", op=spec.key()):
                        ack = self._submit(spec, client)
                except Exception as exc:  # noqa: BLE001
                    tally.op(kind, time.perf_counter() - a, cause=cause_of(exc))
                    client.close()
                    continue
                elapsed = time.perf_counter() - a
                nf = ack["result"]["noise_figure_db"]
                self.cached += ack["status"] == "cached"
                if repeat:
                    cause = None if nf == expected else "repeated measure job changed its NF"
                    tally.op(kind, elapsed, nfs=1, cause=cause)
                    continue
                _, cause = check_nfs([nf], [MEASURE_TRUE_NF_DB], SIGMA_MEASURE_DB)
                tally.op("measure", elapsed, nfs=1, cause=cause)
                if cause is None:
                    done.append((s, nf))
        finally:
            client.close()

    def window(self, seconds: float, tally: Tally) -> float:
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [
            threading.Thread(target=self._lot_client, args=(deadline, tally)),
            threading.Thread(target=self._measure_client, args=(deadline, tally)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def setup_seconds(self, launched_at: float) -> float:
        return self.setup_done - self.launched_at  # from the daemon's launch

    def main_pid(self) -> int:
        return self.daemon.pid

    daemon_pid = main_pid

    def release(self) -> str:
        code = self.stop_daemon()
        return "" if code == 0 else f"daemon exited {code}"

    def stop_daemon(self) -> int:
        """Drain the daemon and reap it; returns its exit code."""
        if self.daemon is not None and self.daemon.poll() is None:
            try:
                with self._client() as client:
                    client.drain()
            except Exception:  # noqa: BLE001 - fall back to SIGTERM
                self.daemon.terminate()
            try:
                self.daemon.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.communicate()
        return self.daemon.returncode

    def final_check(self) -> str:
        """One daemon lot must equal a direct compat run bit for bit."""
        from repro.experiments.production import run_production

        lot_seed, daemon_nfs = self.warm_lot
        direct = run_production(seed=lot_seed).measured_nf_db
        if [float(v) for v in direct] != daemon_nfs:
            return "daemon lot differs from a direct compat run_production"
        return ""

    def teardown(self) -> None:
        self.stop_daemon()
        if hasattr(self, "log"):
            self.log.close()
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "paper_screen": PaperScreen,
    "production_lot": ProductionLot,
    "service_mix": ServiceMix,
}


def make_workdir() -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measured_window(workload, seconds: float) -> dict:
    """One timed window with its ops, CPU and memory.

    Releases the workload's worker processes (or drains and reaps the
    daemon) afterwards: the kernel accounts a child's CPU only once it
    has been reaped.
    """
    tally = Tally()
    meter = CpuMeter(daemon_pid=workload.daemon_pid())
    steal0 = steal_s()
    window_s = workload.window(seconds, tally)
    meter.stop()
    steal = steal_s() - steal0
    rss = program_peak_rss_mb(workload.main_pid())
    cause = workload.release()
    out = tally.summary(window_s)
    if cause:
        out["failed"] += 1
        out["failures"].append({"op": "release", "cause": cause})
    out["cpu_s"] = meter.after_reap()
    out["peak_rss_mb"] = rss
    out["steal_s"] = steal
    return out


def run(args) -> dict:
    if args.workload == "service_mix" and args.mode == "trace":
        return run_service_trace(args)
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed)
        setup_s = workload.setup_seconds(args.launched_at)
        result = {"workload": args.workload, "mode": args.mode, "setup_s": setup_s}
        if args.mode == "setup":
            return result
        if args.mode == "measure":
            result.update(measured_window(workload, args.seconds))
            cause = workload.final_check()
            if cause is not None:
                result["attempted"] += 1
                if cause:
                    result["failed"] += 1
                    result["failures"].append({"op": "final_check", "cause": cause})
            result["env"] = environment()
            return result
        # Trace mode, in-process workloads: untraced window, then traced.
        plain = Tally()
        plain_s = workload.window(args.seconds, plain)
        plain_rate = plain.nfs / plain_s
        tracer.install()
        main_thread = threading.get_ident()
        tally = Tally()
        before = store_totals(getattr(workload, "dir", None))
        t0 = time.perf_counter()
        window_s = workload.window(args.seconds, tally)
        traced = tally.summary(window_s)
        traced["store"] = store_growth(before, store_totals(getattr(workload, "dir", None)))
        result.update(
            layer_report(tracer.spans(), (t0, t0 + window_s), main_thread,
                         plain_rate, traced)
        )
        result["env"] = environment()
        return with_ops(result, plain, traced)
    finally:
        workload.teardown()


def run_service_trace(args) -> dict:
    """An untraced daemon's window, then a traced daemon's window."""
    plain_mix = ServiceMix()
    try:
        plain_mix.setup(args.seed)
        plain = Tally()
        plain_s = plain_mix.window(args.seconds, plain)
        plain_rate = plain.nfs / plain_s
    finally:
        plain_mix.teardown()
    mix = ServiceMix(traced=True)
    try:
        mix.setup(args.seed)
        tracer.enable()  # client-side spans, joined to the daemon's by job key
        tally = Tally()
        before = store_totals(mix.dir)
        t0 = time.perf_counter()
        window_s = mix.window(args.seconds, tally)
        traced = tally.summary(window_s)
        traced["cached"] = mix.cached
        traced["store"] = store_growth(before, store_totals(mix.dir))
        mix.release()
        daemon_spans, threads = tracer.load(mix.spans_path)
        setup_s = mix.setup_seconds(args.launched_at)
    finally:
        mix.teardown()
    executor = next((i for i, n in threads.items() if n == "service-executor"), None)
    window = (t0, t0 + window_s)
    result = {"workload": args.workload, "mode": args.mode, "setup_s": setup_s}
    result.update(layer_report(daemon_spans, window, executor, plain_rate, traced))
    result["job_join"] = join_jobs(tracer.spans(), daemon_spans, window)
    result["env"] = environment()
    return with_ops(result, plain, traced)


def with_ops(result: dict, plain: Tally, traced: dict) -> dict:
    """Ops of both windows of a traced run count as attempted."""
    result["attempted"] = plain.attempted + traced["attempted"]
    result["failures"] = plain.failures + traced["failures"]
    result["failed"] = len(result["failures"])
    return result


def store_totals(work_dir) -> tuple:
    """Entries and payload bytes of a workload's store (zeros without one)."""
    if work_dir is None:
        return (0, 0)
    from repro.store import ResultStore

    index = ResultStore(os.path.join(work_dir, "store")).index()
    return (len(index), index.total_bytes)


def store_growth(before, after) -> dict:
    return {"puts": after[0] - before[0], "bytes_written": after[1] - before[1]}


def layer_report(spans, window, critical, plain_rate, traced) -> dict:
    """Per-layer metrics (per NF delivered), the stage table and p90s."""
    a = tracer.analyze(spans, window, critical)
    rows = a["rows"]
    nfs = max(1, traced["nfs"])
    wall = a["wall_s"]

    def self_s(row):
        return rows.get(row, {}).get("self_s", 0.0) + rows.get(row, {}).get("other_s", 0.0)

    spans_in = [s for s in spans if window[0] <= s[tracer.T0] < window[1]]
    by_name = lambda suffix: [s for s in spans_in if s[tracer.NAME].endswith(suffix)]  # noqa: E731
    gets = by_name("ResultStore.get_result") + by_name("ResultStore.get_outcome")
    segments = sum(s[tracer.TAG] or 0 for s in by_name("welch_batch") + by_name("welch_batch_shared"))
    span_by_id = {s[tracer.ID]: s for s in spans}
    groups = sum(
        1
        for s in by_name("MeasurementEngine.measure_devices") + by_name("MeasurementEngine.measure")
        if span_by_id.get(s[tracer.PARENT], (None,) * 11)[tracer.LAYER] == "scheduler"
    )
    executes = by_name("MeasurementService._execute")
    runs_measure = {s[tracer.PARENT] for s in by_name("MeasurementService._run_measure")}
    measure_execs = [s for s in executes if s[tracer.ID] in runs_measure]
    admitted = {s[tracer.OP]: s[tracer.T0] for s in by_name("JobQueue.submit")}
    released = {s[tracer.OP]: s[tracer.T1] for s in by_name("JobQueue.release")}
    admit = [released[k] - admitted[k] for k in released if k in admitted]
    queue_wait = [s[tracer.T0] - released[s[tracer.OP]] for s in executes if s[tracer.OP] in released]
    journal = sum(
        s[tracer.T1] - s[tracer.T0]
        for s in by_name("JobJournal.record_accept") + by_name("JobJournal.record_done")
        + by_name("JobJournal.rotate")
    )
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for layer in ("signals", "analog", "instruments", "digitizer", "bitstream", "dsp",
                  "kernels", "core", "engine", "scheduler", "store", "service", "experiments"):
        put(f"{layer}.self_s", self_s(layer) / nfs, "s/nf")
    put("signals.cpu_s", rows.get("signals", {}).get("cpu_s", 0.0) / nfs, "s/nf")
    put("dsp.cpu_s", rows.get("dsp", {}).get("cpu_s", 0.0) / nfs, "s/nf")
    put("dsp.segments", segments / nfs, "count/nf")
    put("kernels.calls", rows.get("kernels", {}).get("calls", 0) / nfs, "count/nf")
    put("engine.pool_wait_s", self_s("engine.pool_wait") / nfs, "s/nf")
    put("scheduler.groups", groups / nfs, "count/nf")
    put("store.puts", traced.get("store", {}).get("puts", 0) / nfs, "count/nf")
    put("store.bytes_written", traced.get("store", {}).get("bytes_written", 0) / nfs, "B/nf")
    put("store.gets", len(gets) / nfs, "count/nf")
    put("store.hit_ratio", sum(1 for s in gets if s[tracer.TAG]) / len(gets) if gets else 0.0, "ratio")
    put("service.admit_s_p50", tracer.p50(admit), "s/job")
    put("service.journal_s", journal / nfs, "s/nf")
    put("service.queue_wait_s_p50", tracer.p50(queue_wait), "s/job")
    put("service.cached_ratio", traced.get("cached", 0) / max(1, traced["attempted"]), "ratio")
    put("service.preempted",
        sum(1 for s in measure_execs if s[tracer.TAG]) / len(measure_execs) if measure_execs else 0.0,
        "ratio")
    put("unattributed_s", a["unattributed_s"] / nfs, "s/nf")
    put("unattributed.share", 100.0 * a["unattributed_s"] / wall, "%")
    traced_rate = traced["nfs"] / traced["window_s"]
    put("trace.overhead", plain_rate / traced_rate - 1.0, "ratio")

    table = [
        {"row": name, "calls": r["calls"], "self_s": r["self_s"],
         "share": r["self_s"] / wall, "other_threads_s": r["other_s"]}
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
    ]
    table.append({"row": "unattributed", "calls": 0, "self_s": a["unattributed_s"],
                  "share": a["unattributed_s"] / wall, "other_threads_s": 0.0})
    return {
        "traced": traced,
        "untraced_nf_per_s": plain_rate,
        "per_layer": metrics,
        "stage_table": table,
        "wall_s": wall,
    }


def join_jobs(client_spans, daemon_spans, window) -> dict:
    """Client latency split into daemon phases, joined by job key."""
    execute = {
        s[tracer.OP]: s for s in daemon_spans
        if s[tracer.NAME].endswith("MeasurementService._execute")
    }
    released = {
        s[tracer.OP]: s[tracer.T1] for s in daemon_spans
        if s[tracer.NAME].endswith("JobQueue.release")
    }
    phases = {}
    for s in client_spans:
        if (
            not s[tracer.NAME].startswith("client:")
            or not window[0] <= s[tracer.T0] < window[1]
            or s[tracer.OP] not in execute
        ):
            continue
        e = execute[s[tracer.OP]]
        total = s[tracer.T1] - s[tracer.T0]
        queued = e[tracer.T0] - released.get(s[tracer.OP], e[tracer.T0])
        run_s = e[tracer.T1] - e[tracer.T0]
        kind = s[tracer.NAME].split(":", 1)[1]
        row = phases.setdefault(kind, {"total": [], "queued": [], "execute": [], "other": []})
        row["total"].append(total)
        row["queued"].append(queued)
        row["execute"].append(run_s)
        row["other"].append(total - queued - run_s)
    return {
        kind: {phase: latency_stats(v) for phase, v in row.items()}
        for kind, row in phases.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
