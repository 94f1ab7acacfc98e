"""The supervised measurement daemon: accept, journal, execute, survive.

:class:`MeasurementService` multiplexes measure/lot/retest jobs from
many clients onto one shared :class:`~repro.engine.engine.
MeasurementEngine` (one worker pool, one result store).  Three
threads of control cooperate:

* the **asyncio front-end** (main thread) owns the Unix/TCP listener,
  parses requests, journals accepted jobs *before* acknowledging them
  and resolves waiting clients when jobs finish;
* the **executor thread** claims jobs off the admission queue in
  priority order and runs them on the engine.  Bulk lots run
  chunked (``max_group_devices`` + a checkpoint callback), so every
  sub-batch boundary is a drain point, a deadline check, and a
  preemption point where queued interactive jobs run inline;
* the **watchdog thread** watches a heartbeat the executor touches at
  every job and checkpoint boundary, plus the pool's attempt counter
  as task-level progress evidence.  A wedged pool (no progress past
  ``watchdog_stall_s``) is killed and respawned — the layer above
  PR 6's per-task timeouts, for the failure modes those cannot see.

Crash recovery is the contract: every accepted job is journaled before
its ack, jobs execute with ``resume=True`` against the content-
addressed store, and a restarted daemon replays the journal and
re-enqueues every incomplete job.  SIGKILL the daemon mid-lot and the
merged outcome after restart is bit-identical to an uninterrupted run
(``tests/integration/test_service_chaos.py`` holds that bar).

Graceful drain (SIGTERM/SIGINT, or the ``drain`` op): stop admitting,
finish the in-flight sub-batch, persist partial lot state, close the
pool, exit ``EXIT_JOBS_DROPPED`` iff acknowledged jobs were left
unfinished (they stay journaled, so a restart resumes them).
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.engine.engine import MeasurementEngine
from repro.engine.scheduler import (
    MeasurementTask,
    RetryPolicy,
    plan_measurements,
)
from repro.errors import ConfigurationError
from repro.obs.export import render_prometheus
from repro.faults.injector import client_disconnect_fault, job_deadline_fault
from repro.service.journal import JobJournal
from repro.service.lifecycle import (
    EXIT_JOBS_DROPPED,
    drain_engine,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    JobSpec,
    ProtocolError,
    decode_line,
    encode_line,
    parse_request,
)
from repro.service.queue import ADMITTED, DUPLICATE, Job, JobQueue
from repro.signals.random import make_rng
from repro.store.store import ResultStore

__all__ = [
    "JobDeadlineExceeded",
    "MeasurementService",
    "ServiceConfig",
    "ServiceDrain",
    "ServiceReport",
]

_LOG = logging.getLogger("repro.service.supervisor")


class ServiceDrain(BaseException):
    """Raised inside a running job at its next checkpoint to drain."""


class JobDeadlineExceeded(RuntimeError):
    """A job's wall-clock budget expired mid-run."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon needs to come up (and come back)."""

    store_root: str
    socket_path: Optional[str] = None  # default <store_root>/service.sock
    host: Optional[str] = None  # set for TCP instead of a Unix socket
    port: int = 0
    backend: str = "serial"
    max_workers: Optional[int] = None
    max_depth: int = 64
    #: Devices per planned sub-batch — the drain/preemption/deadline
    #: granularity of bulk lots.
    max_group_devices: int = 8
    drain_grace_s: float = 30.0
    watchdog_interval_s: float = 0.5
    watchdog_stall_s: float = 60.0
    journal_fsync: bool = True
    #: Rotate (compact) the journal after this many terminal records,
    #: not only at drain — a long-lived daemon's journal disk stays
    #: bounded.  ``0`` disables mid-run rotation.
    journal_rotate_records: int = 512
    #: Completed jobs kept in memory for dedup/cached answers; older
    #: ones are evicted (their results live on in the store).
    completed_retain: int = 256
    retry: Optional[RetryPolicy] = None
    rng_mode: str = "compat"

    def __post_init__(self):
        if not self.store_root:
            raise ConfigurationError("store_root is required")
        if self.max_group_devices < 1:
            raise ConfigurationError(
                f"max_group_devices must be >= 1, "
                f"got {self.max_group_devices}"
            )
        if self.drain_grace_s <= 0 or self.watchdog_interval_s <= 0:
            raise ConfigurationError(
                "drain_grace_s and watchdog_interval_s must be > 0"
            )
        if self.watchdog_stall_s <= 0:
            raise ConfigurationError(
                f"watchdog_stall_s must be > 0, got {self.watchdog_stall_s}"
            )
        if self.journal_rotate_records < 0:
            raise ConfigurationError(
                f"journal_rotate_records must be >= 0, "
                f"got {self.journal_rotate_records}"
            )

    def resolved_socket(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return str(pathlib.Path(self.store_root) / "service.sock")


@dataclass
class ServiceReport:
    """Daemon-level telemetry, one layer above ``RunReport``.

    ``RunReport`` describes one screen's execution; this describes the
    *daemon* — admission, shedding, journal recovery, deadline kills,
    watchdog interventions — plus the pool counters aggregated across
    every job the process ran.
    """

    accepted: int = 0
    duplicates: int = 0
    shed: int = 0
    cached_hits: int = 0
    completed: int = 0
    failed: int = 0
    deadline_kills: int = 0
    watchdog_kills: int = 0
    dropped: int = 0
    disconnect_drops: int = 0
    journal_replayed: int = 0
    journal_skipped: int = 0
    queue_depth: int = 0
    draining: bool = False
    uptime_s: float = 0.0
    pool: Dict[str, int] = field(default_factory=dict)
    #: Journal disk accounting (``quick_stats``: segments + bytes).
    journal: Dict[str, int] = field(default_factory=dict)
    #: Terminal records journaled since the last mid-run rotation.
    records_since_rotate: int = 0
    #: ``repro.obs`` metrics snapshot, or ``None`` while disabled.
    obs: Optional[dict] = None

    def describe(self) -> dict:
        """JSON-ready view (the ``stats`` op and ``--json`` emit it)."""
        return {
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "shed": self.shed,
            "cached_hits": self.cached_hits,
            "completed": self.completed,
            "failed": self.failed,
            "deadline_kills": self.deadline_kills,
            "watchdog_kills": self.watchdog_kills,
            "dropped": self.dropped,
            "disconnect_drops": self.disconnect_drops,
            "journal_replayed": self.journal_replayed,
            "journal_skipped": self.journal_skipped,
            "queue_depth": self.queue_depth,
            "draining": self.draining,
            "uptime_s": self.uptime_s,
            "pool": dict(self.pool),
            "journal": dict(self.journal),
            "records_since_rotate": self.records_since_rotate,
            "obs": self.obs,
        }


class MeasurementService:
    """One daemon process: front-end, executor, watchdog, journal."""

    def __init__(self, config: ServiceConfig, clock=time.monotonic):
        self.config = config
        self.clock = clock
        root = pathlib.Path(config.store_root)
        self.store = ResultStore(root)
        self.engine = MeasurementEngine(
            backend=config.backend,
            max_workers=config.max_workers,
            store=self.store,
            retry=config.retry,
            rng_mode=config.rng_mode,
        )
        self.journal = JobJournal(
            root / "service", fsync=config.journal_fsync
        )
        self.queue = JobQueue(
            max_depth=config.max_depth,
            clock=clock,
            on_expire=self._on_queue_expire,
            completed_retain=config.completed_retain,
        )
        # Mutable counters the report snapshots.
        self.n_completed = 0
        self.n_failed = 0
        self.n_deadline_kills = 0
        self.n_watchdog_kills = 0
        self.n_dropped = 0
        self.n_cached_hits = 0
        self.n_disconnect_drops = 0
        self.n_journal_replayed = 0
        self.n_journal_skipped = 0
        self._done_since_rotate = 0
        self._started_at = clock()
        self._stop = threading.Event()
        self._drain_requested = threading.Event()
        self._heartbeat = clock()
        self._hb_lock = threading.Lock()
        self._current_job: Optional[Job] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_async: Optional[asyncio.Event] = None
        self._waiters: Dict[str, List[asyncio.Future]] = {}
        self._executor_thread: Optional[threading.Thread] = None
        self._watchdog_thread: Optional[threading.Thread] = None

    def _on_queue_expire(self, job: Job) -> None:
        """A queued job's budget ran out before it started (queue lock
        held): journal the terminal state and wake its waiters — the
        budget was spent waiting, which is still spent."""
        self.n_deadline_kills += 1
        obs.inc("service.jobs", tags={"status": "deadline"})
        obs.trace_event(
            "job.expired_queued", key=job.key[:12], kind=job.spec.kind
        )
        try:
            self.journal.record_done(job.key, "deadline", error=job.error)
            self._done_since_rotate += 1
        except OSError as exc:  # pragma: no cover - disk loss
            _LOG.error("journal done record failed: %s", exc)
        self._notify(job)

    # ------------------------------------------------------------------
    # Journal replay (startup)
    # ------------------------------------------------------------------
    def replay_journal(self) -> int:
        """Re-enqueue every journaled-but-incomplete job."""
        state = self.journal.replay()
        self.n_journal_skipped = state.n_skipped
        replayed = 0
        for entry in state.incomplete:
            verdict, _ = self.queue.submit(entry.spec, replayed=True)
            if verdict == ADMITTED:
                replayed += 1
            else:  # pragma: no cover - replay overflow is operator error
                _LOG.warning(
                    "journal replay could not re-admit %s (%s)",
                    entry.key[:12], verdict,
                )
        self.n_journal_replayed = replayed
        if replayed:
            _LOG.info("journal replay re-enqueued %d job(s)", replayed)
        return replayed

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        queue_stats = self.queue.stats()
        obs.gauge("service.queue_depth", queue_stats["depth"])
        pool = self.engine.worker_pool
        pool_counters: Dict[str, int] = {}
        if pool is not None:
            t = pool.telemetry
            pool_counters = {
                "attempts": t.attempts,
                "retries": t.retries,
                "timeouts": t.timeouts,
                "respawns": t.respawns,
                "dead": len(t.dead),
                "spawns": pool.spawn_count,
            }
        return ServiceReport(
            accepted=queue_stats["accepted"],
            duplicates=queue_stats["duplicates"],
            shed=queue_stats["shed"],
            cached_hits=self.n_cached_hits,
            completed=self.n_completed,
            failed=self.n_failed,
            deadline_kills=self.n_deadline_kills,
            watchdog_kills=self.n_watchdog_kills,
            dropped=self.n_dropped,
            disconnect_drops=self.n_disconnect_drops,
            journal_replayed=self.n_journal_replayed,
            journal_skipped=self.n_journal_skipped,
            queue_depth=queue_stats["depth"],
            draining=queue_stats["draining"],
            uptime_s=float(self.clock() - self._started_at),
            pool=pool_counters,
            journal=self.journal.quick_stats(),
            records_since_rotate=self._done_since_rotate,
            obs=obs.snapshot(),
        )

    # ------------------------------------------------------------------
    # Job execution (executor thread)
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        with self._hb_lock:
            self._heartbeat = self.clock()

    def _heartbeat_age(self) -> float:
        with self._hb_lock:
            return self.clock() - self._heartbeat

    def _checkpoint_for(self, job: Job):
        """The sub-batch boundary hook of one running lot."""

        def checkpoint(group_index: int, n_groups: int) -> None:
            self._touch()
            job.checks += 1
            if job.expired(self.clock()) or job_deadline_fault(
                job.key, job.checks
            ):
                raise JobDeadlineExceeded(
                    f"job {job.key[:12]} exceeded its "
                    f"{job.spec.deadline_s}s budget at sub-batch "
                    f"{group_index + 1}/{n_groups}"
                )
            if self._drain_requested.is_set():
                raise ServiceDrain()
            # Preemption: run queued interactive work inline while the
            # pool is idle between sub-batches.
            while True:
                inner = self.queue.claim_nowait(
                    max_priority=job.priority - 1
                )
                if inner is None:
                    break
                self._execute(inner, nested=True)

        return checkpoint

    def _run_lot(self, job: Job) -> dict:
        from repro.experiments.production import run_production

        result = run_production(
            engine=self.engine,
            resume=True,
            report=True,
            max_group_devices=self.config.max_group_devices,
            checkpoint=self._checkpoint_for(job),
            **job.spec.params,
        )
        return {
            "kind": "lot",
            "n_devices": result.n_devices,
            "n_plan_groups": result.n_plan_groups,
            "measured_nf_db": [float(v) for v in result.measured_nf_db],
            "rows": [
                {
                    "guardband_sigmas": row.guardband_sigmas,
                    "guardband_db": row.guardband_db,
                    "n_pass": row.outcome.n_pass,
                    "n_fail": row.outcome.n_fail,
                    "n_retest": row.outcome.n_retest,
                    "n_escapes": row.outcome.n_escapes,
                    "n_overkill": row.outcome.n_overkill,
                }
                for row in result.rows
            ],
            "run_report": (
                result.run_report.describe()
                if result.run_report is not None
                else None
            ),
        }

    def _run_retest(self, job: Job) -> dict:
        from repro.experiments.production import run_production_retest

        result = run_production_retest(
            engine=self.engine, **job.spec.params
        )
        return {
            "kind": "retest",
            "n_devices": result.n_devices,
            "n_retested": result.n_retested,
            "retest_indices": [int(i) for i in result.retest_indices],
            "merged_nf_db": [float(v) for v in result.merged_nf_db],
            "initial_from_store": bool(result.initial_from_store),
        }

    def _run_measure(self, job: Job) -> dict:
        from repro.experiments.production import _build_device_bench

        params = job.spec.params
        true_nf_db = float(params.get("true_nf_db", 8.0))
        n_samples = int(params.get("n_samples", 2**14))
        nperseg = int(params.get("nperseg", 4096))
        seed = params.get("seed", 0)
        bench = _build_device_bench(true_nf_db, n_samples)
        task = MeasurementTask(
            source=bench,
            estimator=bench.make_estimator(nperseg=nperseg),
            rng=make_rng(int(seed)),
        )
        results = plan_measurements([task]).run(self.engine, resume=True)
        return {
            "kind": "measure",
            "true_nf_db": true_nf_db,
            "noise_figure_db": float(results[0].noise_figure_db),
        }

    def _execute(self, job: Job, nested: bool = False) -> None:
        """Run one claimed job to a terminal state (executor thread)."""
        self._touch()
        if not nested:
            self._current_job = job
        if job.started_at is not None:
            obs.observe(
                "service.queue_wait_seconds",
                max(0.0, job.started_at - job.submitted_at),
                tags={"kind": job.spec.kind},
            )
        obs.gauge("service.queue_depth", self.queue.depth)
        try:
            with obs.trace_span(
                "job.execute",
                key=job.key[:12],
                kind=job.spec.kind,
                nested=nested,
            ):
                if job.expired(self.clock()):
                    raise JobDeadlineExceeded(
                        f"job {job.key[:12]} budget expired before it ran"
                    )
                if job.spec.kind == "lot":
                    result = self._run_lot(job)
                elif job.spec.kind == "retest":
                    result = self._run_retest(job)
                else:
                    result = self._run_measure(job)
        except ServiceDrain:
            # Interrupted at a sub-batch boundary: finished sub-batches
            # are persisted, the journal keeps the accept record, and a
            # restarted daemon resumes the job.  No ``done`` record.
            self.n_dropped += 1
            obs.inc("service.jobs", tags={"status": "dropped"})
            self.queue.finish(
                job, "dropped",
                error="daemon drained mid-run; job resumable via journal",
            )
            self._notify(job)
            raise
        except JobDeadlineExceeded as exc:
            self.n_deadline_kills += 1
            self._finish(job, "deadline", error=str(exc))
        except (ConfigurationError, ProtocolError, TypeError) as exc:
            # A spec the experiments layer rejects is a *client* error:
            # terminal, never retried on restart.
            self.n_failed += 1
            self._finish(job, "failed", error=f"bad job spec: {exc}")
        except Exception as exc:
            self.n_failed += 1
            self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            self.n_completed += 1
            self._finish(job, "ok", result=result)
        finally:
            if not nested:
                self._current_job = None
            self._touch()

    def _finish(self, job: Job, status: str, result=None, error=""):
        """Terminal transition: journal first, then queue, then waiters."""
        obs.inc("service.jobs", tags={"status": status})
        obs.trace_event(
            "job.done", key=job.key[:12], kind=job.spec.kind, status=status
        )
        try:
            self.journal.record_done(
                job.key, status, result=result, error=error
            )
            self._done_since_rotate += 1
        except OSError as exc:  # pragma: no cover - disk loss
            _LOG.error("journal done record failed: %s", exc)
        self.queue.finish(job, status, result=result, error=error)
        self._notify(job)

    def _maybe_rotate_journal(self) -> None:
        """Compact the journal once enough terminal records piled up.

        ``done`` records embed full lot results, so a journal that only
        rotates at drain grows without bound under sustained traffic.
        Runs on the executor thread between jobs; the journal's flock
        serializes it against in-flight ``record_accept`` appends.
        """
        threshold = self.config.journal_rotate_records
        if not threshold or self._done_since_rotate < threshold:
            return
        self._done_since_rotate = 0
        try:
            self.journal.rotate()
        except OSError as exc:  # pragma: no cover - disk loss
            _LOG.error("journal rotation failed: %s", exc)

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            if self._drain_requested.is_set():
                break
            job = self.queue.claim(timeout_s=0.2)
            if job is None:
                continue
            try:
                self._execute(job)
            except ServiceDrain:
                break
            self._maybe_rotate_journal()

    # ------------------------------------------------------------------
    # Watchdog thread
    # ------------------------------------------------------------------
    def _pool_progress(self) -> int:
        pool = self.engine.worker_pool
        return 0 if pool is None else int(pool.telemetry.attempts)

    def _watchdog_loop(self) -> None:
        last_progress_t = self.clock()
        last_attempts = self._pool_progress()
        while not self._stop.wait(self.config.watchdog_interval_s):
            attempts = self._pool_progress()
            if (
                self._current_job is None
                or attempts != last_attempts
                or self._heartbeat_age() < self.config.watchdog_stall_s
            ):
                last_progress_t = self.clock()
                last_attempts = attempts
                continue
            if (
                self.clock() - last_progress_t
                < self.config.watchdog_stall_s
            ):
                continue
            pool = self.engine.worker_pool
            if pool is not None and pool.active:
                _LOG.warning(
                    "watchdog: no progress for %.1fs — killing workers",
                    self.clock() - last_progress_t,
                )
                pool._kill_workers()
                self.n_watchdog_kills += 1
                obs.inc("service.watchdog_kills")
                obs.trace_event(
                    "service.watchdog_kill",
                    stalled_s=round(self.clock() - last_progress_t, 3),
                )
            last_progress_t = self.clock()
            last_attempts = self._pool_progress()

    # ------------------------------------------------------------------
    # Front-end (asyncio, main thread)
    # ------------------------------------------------------------------
    def _notify(self, job: Job) -> None:
        """Wake the waiters of one finished job (any thread)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._resolve_waiters, job.key)
        except RuntimeError:  # pragma: no cover - loop torn down
            pass

    def _resolve_waiters(self, key: str) -> None:
        job = self.queue.get(key)
        for future in self._waiters.pop(key, []):
            if not future.done() and job is not None:
                future.set_result(job.describe())

    async def _send(self, writer, payload: dict, droppable=False) -> None:
        if droppable and client_disconnect_fault():
            # The request (and any journal append it caused) has
            # happened; only the response is lost.  The client's
            # idempotent resubmit is the recovery path.
            self.n_disconnect_drops += 1
            writer.close()
            raise ConnectionResetError("injected client disconnect")
        writer.write(encode_line(payload))
        await writer.drain()

    def _release_held(self, job: Job) -> bool:
        """Make a held job claimable; reconcile the journal if not.

        When a drain wins the held-admission race the client is told
        ``rejected``, so the already-journaled accept must be cancelled
        with a ``dropped`` record — otherwise the next daemon would run
        a job its client was told will not run, and a resubmit to
        another daemon would execute the work twice.
        """
        if self.queue.release(job):
            return True
        try:
            self.journal.record_done(
                job.key, "dropped",
                error="daemon drained before the job ran",
            )
            self._done_since_rotate += 1
        except OSError as exc:  # pragma: no cover - disk loss
            _LOG.error("journal done record failed: %s", exc)
        self.n_dropped += 1
        self._notify(job)
        return False

    async def _handle_submit(self, request: dict, writer) -> None:
        spec: JobSpec = request["job"]
        key = spec.key()
        existing = self.queue.get(key)
        if existing is not None and existing.state == "ok":
            # Completed this process: answer from the in-memory cache
            # without touching the queue or journal.
            self.n_cached_hits += 1
            obs.inc("service.submits", tags={"verdict": "cached"})
            obs.trace_event(
                "job.submitted", key=key[:12], verdict="cached"
            )
            await self._send(
                writer,
                {
                    "ok": True,
                    "op": "submit",
                    "status": "cached",
                    "key": key,
                    "job": existing.describe(),
                },
                droppable=True,
            )
            return
        # Held admission: the job is dedupable immediately but only
        # becomes claimable once its accept record is durable —
        # otherwise a fast executor could journal the job's *done*
        # before its *accept*, and replay would resurrect it forever.
        verdict, job = self.queue.submit(spec, hold=True)
        if verdict == ADMITTED:
            # Durable before acknowledged: the ack only goes out once
            # the accept record is on disk.
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None,
                    self.journal.record_accept,
                    key,
                    spec,
                    self.clock(),
                )
            except OSError as exc:
                self.queue.finish(
                    job, "dropped", error=f"journal append failed: {exc}"
                )
                await self._send(
                    writer,
                    {
                        "ok": False,
                        "op": "submit",
                        "status": "error",
                        "key": key,
                        "error": f"journal append failed: {exc}",
                    },
                )
                return
            if not self._release_held(job):
                verdict = "rejected"
        obs.inc("service.submits", tags={"verdict": verdict})
        obs.trace_event(
            "job.submitted",
            key=key[:12],
            kind=spec.kind,
            verdict=verdict,
        )
        payload = {
            "ok": verdict != "rejected",
            "op": "submit",
            "status": verdict,
            "key": key,
        }
        if verdict == "rejected":
            payload["error"] = (
                "draining" if self.queue.draining else "backpressure"
            )
        wait = bool(request.get("wait")) and verdict in (
            ADMITTED,
            DUPLICATE,
        )
        future: Optional[asyncio.Future] = None
        if wait:
            target = job if job is not None else self.queue.get(key)
            if target is not None and target.done:
                payload["job"] = target.describe()
                wait = False
            else:
                future = asyncio.get_running_loop().create_future()
                self._waiters.setdefault(key, []).append(future)
        await self._send(writer, payload, droppable=True)
        if wait and future is not None:
            described = await future
            await self._send(
                writer,
                {"ok": True, "op": "result", "key": key, "job": described},
            )

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # The request line blew past the reader's limit.
                    # readline() already discarded the partial buffer
                    # and there is no way to resync mid-line, so
                    # answer once and hang up.
                    await self._send(
                        writer,
                        {
                            "ok": False,
                            "error": (
                                f"request line exceeds "
                                f"{MAX_LINE_BYTES} bytes"
                            ),
                        },
                    )
                    break
                if not line:
                    break
                try:
                    request = parse_request(decode_line(line))
                except ProtocolError as exc:
                    await self._send(
                        writer, {"ok": False, "error": str(exc)}
                    )
                    continue
                op = request["op"]
                # Request-to-response latency per op (a waited submit
                # includes its job's run time — that *is* the latency
                # the client saw).
                op_t0 = time.monotonic() if obs.enabled() else 0.0
                if op == "ping":
                    await self._send(
                        writer, {"ok": True, "op": "ping", "pong": True}
                    )
                elif op == "stats":
                    await self._send(
                        writer,
                        {
                            "ok": True,
                            "op": "stats",
                            "report": self.report().describe(),
                        },
                    )
                elif op == "metrics":
                    snap = obs.snapshot()
                    trace = obs.trace_buffer()
                    try:
                        trace_limit = int(request.get("trace_limit", 256))
                    except (TypeError, ValueError):
                        trace_limit = 256
                    await self._send(
                        writer,
                        {
                            "ok": True,
                            "op": "metrics",
                            "enabled": snap is not None,
                            "prometheus": (
                                "" if snap is None
                                else render_prometheus(snap)
                            ),
                            "metrics": snap,
                            "trace": (
                                None if trace is None
                                else trace.describe(limit=trace_limit)
                            ),
                        },
                    )
                elif op == "status":
                    job = self.queue.get(request["key"])
                    await self._send(
                        writer,
                        {
                            "ok": job is not None,
                            "op": "status",
                            "key": request["key"],
                            "job": None if job is None else job.describe(),
                        },
                    )
                elif op == "drain":
                    await self._send(
                        writer, {"ok": True, "op": "drain", "draining": True}
                    )
                    self.request_drain()
                elif op == "submit":
                    await self._handle_submit(request, writer)
                if op_t0:
                    obs.observe(
                        "service.op_seconds",
                        time.monotonic() - op_t0,
                        tags={"op": op},
                    )
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; its journaled jobs still run
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Begin a graceful drain (signal-safe, any thread)."""
        if self._drain_requested.is_set():
            return
        self._drain_requested.set()
        obs.trace_event("service.drain_requested")
        dropped = self.queue.drain()
        self.n_dropped += len(dropped)
        for job in dropped:
            self._notify(job)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._shutdown_async.set)

    def run(self, ready_callback=None) -> int:
        """Serve until drained; returns the process exit code."""
        return asyncio.run(self._main(ready_callback))

    async def _main(self, ready_callback=None) -> int:
        import signal as _signal

        self._loop = asyncio.get_running_loop()
        self._shutdown_async = asyncio.Event()
        # A daemon always observes itself: the metrics op, the stats
        # op's embedded snapshot and the span timelines all hang off
        # the process-global registry this turns on.  Worker pools
        # spawned later inherit it via the pool's initializer.
        obs.enable()
        obs.trace_event("service.start")
        self.journal.initialize()
        self.replay_journal()
        self._executor_thread = threading.Thread(
            target=self._executor_loop, name="service-executor", daemon=True
        )
        self._watchdog_thread = threading.Thread(
            target=self._watchdog_loop, name="service-watchdog", daemon=True
        )
        self._executor_thread.start()
        self._watchdog_thread.start()

        # StreamReader defaults to a 64 KiB line limit; the protocol
        # allows MAX_LINE_BYTES, plus slack so a line just over the
        # protocol bound is read whole and rejected with a clean
        # ProtocolError instead of a reader overrun.
        read_limit = MAX_LINE_BYTES + (1 << 10)
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port,
                limit=read_limit,
            )
            bound = server.sockets[0].getsockname()
            endpoint = {"host": bound[0], "port": bound[1]}
        else:
            socket_path = self.config.resolved_socket()
            with contextlib.suppress(OSError):
                pathlib.Path(socket_path).unlink()
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=socket_path,
                limit=read_limit,
            )
            endpoint = {"socket": socket_path}

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                self._loop.add_signal_handler(signum, self.request_drain)

        if ready_callback is not None:
            ready_callback(endpoint)
        _LOG.info("serving on %s", endpoint)

        try:
            await self._shutdown_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            exit_code = await self._loop.run_in_executor(
                None, self._drain_threads
            )
            # Resolve any stragglers still waiting on a response.
            for key in list(self._waiters):
                self._resolve_waiters(key)
        return exit_code

    def _drain_threads(self) -> int:
        """Finish the drain off-loop: join threads, close the pool."""
        grace = float(self.config.drain_grace_s)
        self._executor_thread.join(timeout=grace)
        if self._executor_thread.is_alive():
            # The in-flight job blew the drain budget: kill the workers
            # so its pool call settles, and count it dropped.
            _LOG.warning("drain grace exceeded; killing workers")
            pool = self.engine.worker_pool
            if pool is not None:
                pool._kill_workers()
            self._stop.set()
            self._executor_thread.join(timeout=5.0)
        self._stop.set()
        self._watchdog_thread.join(timeout=5.0)
        drain_engine(self.engine, kill_after_s=10.0)
        # Compact the journal: completed records drop out, incomplete
        # jobs are checkpointed for the next daemon to resume.
        try:
            self.journal.rotate()
        except OSError as exc:  # pragma: no cover - disk loss
            _LOG.error("journal rotation failed: %s", exc)
        incomplete = len(self.journal.replay().incomplete)
        if self.n_dropped or incomplete:
            return EXIT_JOBS_DROPPED
        return 0
