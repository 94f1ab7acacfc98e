"""Measurement scheduler: persistent worker pool and sub-batch planner.

* :class:`WorkerPool` is a persistent, lazily spawned process pool with
  an explicit ``close()`` / context-manager lifetime and per-task fault
  handling (retries, respawns, hung-worker timeouts).  It is the only
  way work reaches another process: an engine sends it whole
  measurements (one chunk of ``run_batch`` repeats or
  ``measure_devices`` devices per worker) and ``map_sweep`` tasks, and
  one pool serves every fan-out of a session, so the pool-spawn cost is
  paid once per session instead of once per call.
* :func:`plan_measurements` / :class:`MeasurementPlan` take an
  arbitrary mix of ``(source, estimator, rng)`` measurement tasks and
  group them into sub-batches that are *compatible* under the engine's
  multi-device batching rules (identical nperseg / window / overlap /
  sample rate / record length, sources implementing the
  :class:`~repro.engine.engine.BatchAcquirer` protocol).  Each group
  runs through ``measure_devices``; singletons and protocol-less
  sources fall back to per-task ``measure``.  Because every path
  spawns per-record generators identically, the planned results are
  bit-identical to running ``engine.measure`` once per task, in task
  order.  :meth:`MeasurementPlan.run_report` is the one execution
  loop; :meth:`MeasurementPlan.run` is the same loop raising the first
  failed group's exception at the end.  A screen runs as
  ``plan_measurements(tasks).run(engine)``, a retest as
  ``plan_retest(tasks, verdicts).run(engine)``: the
  :class:`~repro.engine.engine.MeasurementEngine` owns the pool and
  the store, the plan only groups and loops.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bist import OneBitNoiseFigureBIST
from repro.core.production import Verdict
from repro.errors import ConfigurationError, ExecutionError, MeasurementError
from repro.faults.injector import active_injector, faulted_call, task_fault
from repro import obs
from repro.obs.registry import diff_snapshots
from repro.signals.random import GeneratorLike

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "MapOutcome",
    "WorkerPool",
    "MeasurementTask",
    "PlanGroup",
    "GroupReport",
    "RunReport",
    "MeasurementPlan",
    "plan_measurements",
    "plan_retest",
    "MeasurementScheduler",
]

#: How long to wait for leftover futures to settle after the pool has
#: been killed or declared broken — they resolve as soon as the
#: executor's management thread notices the dead processes.
_SETTLE_TIMEOUT_S = 10.0


def _worker_init(obs_enabled: bool = False) -> None:
    """Pool initializer: the parent's obs switch.

    Runs once in every spawned worker process.  ``obs_enabled`` carries
    the parent's observability switch into the child at spawn; a pool
    spawned *before* the parent enabled observability still catches up
    lazily — :func:`_obs_task` enables the worker-side registry on
    first instrumented dispatch.
    """
    if obs_enabled:
        obs.enable()


def _obs_task(payload) -> Tuple[object, Optional[dict]]:
    """Worker-side dispatch wrapper when observability is on.

    Runs the real task, then drains the worker's process-global
    registry (counters/histograms the task's acquisition and kernels
    recorded) and ships the snapshot home with the result — the
    parent merges it, so per-worker telemetry composes with the
    process backend without shared-memory coordination.
    Disabled runs never dispatch through here, keeping the default
    path byte-identical to an un-instrumented build.
    """
    call, arg = payload
    obs.enable()  # idempotent; covers pools spawned before enable()
    t0 = time.monotonic()
    result = call(arg)
    obs.observe("worker.task_seconds", time.monotonic() - t0)
    return result, obs.snapshot_and_reset()


@dataclass(frozen=True)
class RetryPolicy:
    """How the pool responds when tasks or workers fail.

    ``max_retries`` bounds how often one task is re-dispatched after a
    failure (an exception, a pool break that swallowed it, or a
    timeout) before it is dead-lettered; retries back off exponentially
    from ``backoff_base_s`` with deterministic jitter (seeded from the
    task coordinates, so reruns sleep identically).  ``task_timeout_s``
    arms hung-worker detection: a task whose result does not arrive in
    time gets the worker processes killed and every unfinished task
    re-dispatched.  ``max_respawns`` caps how many times one
    :meth:`WorkerPool.run` call will rebuild a broken pool before
    dead-lettering whatever is left (satisfying the "a second break
    mid-retry must not escape" contract).

    Domain errors (:class:`~repro.errors.MeasurementError`,
    :class:`~repro.errors.ConfigurationError`) are *not* retried: they
    are deterministic properties of the task, and replaying the same
    generators would fail identically.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter: float = 0.1
    task_timeout_s: Optional[float] = None
    max_respawns: int = 3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ConfigurationError(
                f"jitter must be >= 0, got {self.jitter}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether a task exception is worth re-dispatching."""
        return not isinstance(exc, (MeasurementError, ConfigurationError))

    def backoff_s(self, index: int, attempt: int) -> float:
        """The deterministic pre-retry delay for one task dispatch."""
        if self.backoff_base_s <= 0:
            return 0.0
        raw = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if self.jitter <= 0:
            return raw
        # Seeded by the task coordinates only: replays sleep the same.
        u = np.random.default_rng((0x5EED, int(index), int(attempt))).random()
        return raw * (1.0 + self.jitter * u)


#: The pool's default when neither it nor the call supplies a policy.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class TaskFailure:
    """A dead-lettered task: every recovery attempt was exhausted.

    ``kind`` records the terminal failure mode (``"exception"``,
    ``"timeout"``, ``"crash"``, or ``"pool"`` when the respawn budget
    ran out with the task still queued); ``error`` its repr.  The
    original exception rides along (not part of equality) so strict
    callers can re-raise it.
    """

    index: int
    attempts: int
    kind: str
    error: str
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    def describe(self) -> dict:
        """JSON-ready view (what :class:`RunReport` embeds)."""
        return {
            "index": self.index,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


@dataclass
class MapOutcome:
    """What one :meth:`WorkerPool.run` call did, task by task.

    ``results`` keeps payload order (``None`` for dead-lettered tasks);
    ``attempts`` counts every dispatch, ``retries`` the re-dispatches,
    ``timeouts`` the hung-worker detections, ``respawns`` the pool
    rebuilds this call consumed.
    """

    results: List
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    dead: List[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.dead


class WorkerPool:
    """A persistent, lazily spawned, fault-tolerant process pool.

    The executor is created on first use — constructing a pool (or an
    engine holding one) costs nothing until work is actually fanned
    out — and then reused across calls until :meth:`close`.  It is
    sized to ``min(max_workers, batch size)`` at spawn (a 4-task sweep
    on a 64-core host starts 4 workers, not 64) and grows — by
    respawning wider — only when a later batch actually needs more.
    ``close`` releases the worker processes; a later ``map``
    transparently respawns, so a pool object can bracket several
    independent sessions.  :attr:`spawn_count` records how many times
    an executor was actually created (the number every reused call
    amortizes).

    Execution is per-task (:meth:`run`): every payload gets its own
    future, so a failure is scoped to one task instead of one batch.
    Under the pool's :class:`RetryPolicy` (or one passed per call),
    task exceptions are retried with exponential backoff, broken pools
    are rebuilt up to ``max_respawns`` times per call — repeated
    breaks mid-retry no longer escape — hung workers are detected via
    ``task_timeout_s``, killed and respawned, and tasks that exhaust
    every recovery land in the dead-letter list of the returned
    :class:`MapOutcome`.  Because payloads carry their own generators,
    every retry is a bit-exact replay.  :attr:`telemetry` accumulates
    the per-call counters for run-level reporting.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._requested_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self.spawn_count = 0
        self.policy = policy
        self.telemetry = MapOutcome(results=[])
        self._run_seq = 0

    @property
    def max_workers(self) -> int:
        """The resolved worker cap (CPU count when unspecified)."""
        if self._requested_workers is not None:
            return self._requested_workers
        return os.cpu_count() or 1

    @property
    def active(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._executor is not None

    @property
    def size(self) -> int:
        """Worker processes of the live executor (0 when idle)."""
        return self._size if self._executor is not None else 0

    def _ensure(self, n_tasks: int) -> ProcessPoolExecutor:
        wanted = max(1, min(self.max_workers, n_tasks))
        if self._executor is not None and self._size < wanted:
            self.close()  # grow by respawning wider
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=wanted,
                initializer=_worker_init,
                initargs=(obs.enabled(),),
            )
            self._size = wanted
            self.spawn_count += 1
        return self._executor

    def _discard_executor(self) -> None:
        """Drop a broken executor without waiting on its corpse."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._size = 0

    def _kill_workers(self) -> None:
        """Forcibly terminate the worker processes (hung-worker path).

        ``shutdown`` alone would block behind a hung task forever; the
        processes are killed first so every in-flight future settles
        (broken), then the executor is discarded.
        """
        if self._executor is None:
            return
        for proc in list(
            getattr(self._executor, "_processes", {}).values()
        ):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover - raced exit
                pass
        self._discard_executor()

    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        policy: Optional[RetryPolicy] = None,
    ) -> MapOutcome:
        """Run ``fn`` over payloads with full fault handling.

        Results keep payload order; tasks that exhaust every recovery
        come back as ``None`` with a :class:`TaskFailure` in
        ``outcome.dead`` — the caller decides whether that is fatal
        (:meth:`map` raises) or degradable (the planner's
        :meth:`MeasurementPlan.run_report`).

        Recovery semantics, per :class:`RetryPolicy`:

        * a task exception is retried (with deterministic backoff)
          unless it is a domain error, up to ``max_retries`` times;
        * a broken pool (crashed worker) is rebuilt and every
          unfinished task re-dispatched at its next attempt, up to
          ``max_respawns`` rebuilds per call;
        * with ``task_timeout_s`` armed, a result that fails to arrive
          in time kills the workers (a hung worker never yields its
          process voluntarily) and re-dispatches as for a crash.

        Payloads carry their own generators, so every re-dispatch
        replays the task bit-exactly; with a fault injector active
        (:func:`repro.faults.inject`), dispatches are wrapped with the
        injector's deterministic fault directives.
        """
        payloads = list(payloads)
        policy = (
            policy
            if policy is not None
            else (self.policy or DEFAULT_RETRY_POLICY)
        )
        outcome = MapOutcome(results=[None] * len(payloads))
        if not payloads:
            return outcome
        run_seq = self._run_seq
        self._run_seq += 1
        # Snapshot the switch once per call: every dispatch in this run
        # agrees on whether results come back (value, snapshot)-wrapped.
        obs_on = obs.enabled()
        obs.trace_event("pool.dispatch", run=run_seq, tasks=len(payloads))
        dead: Dict[int, TaskFailure] = {}
        pending: List[Tuple[int, int]] = [(i, 1) for i in range(len(payloads))]
        respawns_used = 0
        sleep_before_round = 0.0

        def retry_or_dead(i: int, attempt: int, kind: str, exc) -> None:
            nonlocal sleep_before_round
            retryable = kind != "exception" or policy.is_retryable(exc)
            if retryable and attempt <= policy.max_retries:
                outcome.retries += 1
                obs.trace_event(
                    "pool.retry", index=i, attempt=attempt, kind=kind
                )
                sleep_before_round = max(
                    sleep_before_round, policy.backoff_s(i, attempt)
                )
                next_pending.append((i, attempt + 1))
            else:
                obs.trace_event(
                    "pool.dead_letter", index=i, attempt=attempt, kind=kind
                )
                dead[i] = TaskFailure(
                    index=i,
                    attempts=attempt,
                    kind=kind,
                    error=repr(exc),
                    exception=exc,
                )

        while pending:
            if sleep_before_round > 0:
                time.sleep(sleep_before_round)
                sleep_before_round = 0.0
            executor = self._ensure(len(pending))
            next_pending: List[Tuple[int, int]] = []
            futures: List[Tuple[int, int, Future]] = []
            broken = False
            for i, attempt in pending:
                if broken:
                    next_pending.append((i, attempt))
                    continue
                call, arg = fn, payloads[i]
                directive = task_fault(run_seq, i, attempt)
                if directive is not None:
                    call, arg = faulted_call, (directive, fn, payloads[i])
                if obs_on:
                    # Outermost wrap: the worker-side snapshot covers
                    # the faulted dispatch too.
                    call, arg = _obs_task, (call, arg)
                try:
                    futures.append((i, attempt, executor.submit(call, arg)))
                    outcome.attempts += 1
                except (BrokenProcessPool, RuntimeError):
                    # The executor died between rounds; re-dispatch on
                    # the respawned pool without charging the task.
                    broken = True
                    next_pending.append((i, attempt))
            for i, attempt, future in futures:
                timeout = (
                    _SETTLE_TIMEOUT_S if broken else policy.task_timeout_s
                )
                try:
                    value = future.result(timeout=timeout)
                    if obs_on:
                        value, worker_snap = value
                        if worker_snap:
                            obs.merge(worker_snap)
                    outcome.results[i] = value
                except FuturesTimeoutError as exc:
                    if not broken:
                        # Hung worker: nothing short of killing the
                        # process gets the pool back.
                        outcome.timeouts += 1
                        broken = True
                        self._kill_workers()
                    retry_or_dead(i, attempt, "timeout", exc)
                except (BrokenProcessPool, CancelledError) as exc:
                    broken = True
                    retry_or_dead(i, attempt, "crash", exc)
                except Exception as exc:
                    retry_or_dead(i, attempt, "exception", exc)
            if broken:
                self._kill_workers()
                respawns_used += 1
                outcome.respawns += 1
                obs.trace_event("pool.respawn", run=run_seq)
                if respawns_used > policy.max_respawns:
                    for i, attempt in next_pending:
                        dead[i] = TaskFailure(
                            index=i,
                            attempts=attempt,
                            kind="pool",
                            error=(
                                f"worker pool broke {respawns_used} times; "
                                f"respawn budget ({policy.max_respawns}) "
                                "exhausted"
                            ),
                        )
                    next_pending = []
            pending = next_pending
        outcome.dead = [dead[i] for i in sorted(dead)]
        if obs_on:
            obs.inc("scheduler.dispatches", outcome.attempts)
            if outcome.retries:
                obs.inc("scheduler.retries", outcome.retries)
            if outcome.timeouts:
                obs.inc("scheduler.timeouts", outcome.timeouts)
            if outcome.respawns:
                obs.inc("scheduler.respawns", outcome.respawns)
            if outcome.dead:
                obs.inc("scheduler.dead_letters", len(outcome.dead))
        self.telemetry.attempts += outcome.attempts
        self.telemetry.retries += outcome.retries
        self.telemetry.timeouts += outcome.timeouts
        self.telemetry.respawns += outcome.respawns
        self.telemetry.dead.extend(outcome.dead)
        return outcome

    def map(
        self,
        fn: Callable,
        payloads: Sequence,
        policy: Optional[RetryPolicy] = None,
    ) -> List:
        """Run ``fn`` over payloads on the pool; results keep order.

        The strict face of :meth:`run`: an empty payload list returns
        ``[]`` without ever spawning worker processes, transient
        failures are retried / respawned per the policy, and a task
        that stays dead raises — the original exception for a task
        that kept raising, :class:`~repro.errors.ExecutionError` for
        infrastructure failures (timeouts, crashes, an exhausted
        respawn budget).
        """
        outcome = self.run(fn, payloads, policy=policy)
        if outcome.dead:
            first = outcome.dead[0]
            if first.kind == "exception" and first.exception is not None:
                raise first.exception
            raise ExecutionError(
                f"task {first.index} dead-lettered after {first.attempts} "
                f"attempt(s) ({first.kind}): {first.error}"
            ) from first.exception
        return outcome.results

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._size = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "idle"
        return (
            f"WorkerPool(max_workers={self.max_workers}, {state}, "
            f"spawns={self.spawn_count})"
        )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasurementTask:
    """One device measurement: a bench, its estimator and its seed."""

    source: object
    estimator: OneBitNoiseFigureBIST
    rng: GeneratorLike = None


#: The analysis parameters two tasks must share to ride one sub-batch —
#: exactly the constraints ``measure_devices`` enforces at runtime.
GroupKey = Tuple[int, str, float, float, int]


def _group_key(task: MeasurementTask) -> GroupKey:
    config = task.estimator.config
    return (
        config.nperseg,
        config.window,
        config.overlap,
        config.sample_rate_hz,
        config.n_samples,
    )


def _can_batch(source) -> bool:
    """Whether a source can join a multi-device batch."""
    return callable(getattr(source, "acquire_bitstreams", None))


@dataclass(frozen=True)
class PlanGroup:
    """A compatible sub-batch of the plan (indices into the task list)."""

    key: GroupKey
    indices: Tuple[int, ...]
    batched: bool

    @property
    def n_tasks(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GroupReport:
    """How one sub-batch of a plan fared (see :class:`RunReport`).

    A failed group's original exception rides along (not part of
    equality or :meth:`describe`) so :meth:`MeasurementPlan.run` can
    re-raise it.
    """

    index: int
    n_tasks: int
    batched: bool
    status: str  # "ok" | "failed"
    wall_s: float
    error: str = ""
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    def describe(self) -> dict:
        return {
            "index": self.index,
            "n_tasks": self.n_tasks,
            "batched": self.batched,
            "status": self.status,
            "wall_s": self.wall_s,
            "error": self.error,
        }


@dataclass
class RunReport:
    """Structured outcome of :meth:`MeasurementPlan.run_report`.

    ``results`` is the usual task-ordered list (``None`` where a task
    was not measured); ``groups`` records per-group status and
    wall-clock; the counters (``attempts`` / ``retries`` / ``timeouts``
    / ``respawns`` / ``dead``) are the worker-pool telemetry this run
    consumed; ``injections`` counts the faults the active injector
    (if any) fired *during* this run, per site — under chaos testing
    every injected fault must be accounted for here or in a recovery
    the report can explain.  ``cached_tasks`` counts tasks served from
    the store on a resumed run.
    """

    results: List
    groups: List[GroupReport] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    dead: List[TaskFailure] = field(default_factory=list)
    injections: Dict[str, int] = field(default_factory=dict)
    cached_tasks: int = 0
    #: Total duration on ``time.monotonic()`` (survives clock steps);
    #: the wall clock appears only in the start/end stamps below.
    wall_s: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Metrics delta this run produced (``None`` with obs disabled).
    obs: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """Every group completed and nothing was dead-lettered."""
        return not self.dead and all(g.status == "ok" for g in self.groups)

    @property
    def n_failed_groups(self) -> int:
        return sum(1 for g in self.groups if g.status == "failed")

    def describe(self) -> dict:
        """JSON-ready view (the chaos CLI report embeds it)."""
        return {
            "ok": self.ok,
            "n_tasks": len(self.results),
            "n_measured": sum(1 for r in self.results if r is not None),
            "cached_tasks": self.cached_tasks,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "dead": [f.describe() for f in self.dead],
            "injections": dict(self.injections),
            "wall_s": self.wall_s,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "obs": self.obs,
            "groups": [g.describe() for g in self.groups],
        }


def _pool_snapshot(pool) -> Tuple[int, int, int, int, int]:
    """The cumulative telemetry counters of a pool (zeros when absent)."""
    if pool is None:
        return (0, 0, 0, 0, 0)
    t = pool.telemetry
    return (t.attempts, t.retries, t.timeouts, t.respawns, len(t.dead))


@dataclass(frozen=True)
class MeasurementPlan:
    """A heterogeneous screen grouped into compatible sub-batches.

    Built by :func:`plan_measurements`.  ``run`` executes every group —
    batched groups through ``engine.measure_devices``, singleton /
    unbatchable tasks through ``engine.measure`` — and scatters the
    results back into task order.  Results are bit-identical to calling
    ``engine.measure(task.source, task.estimator, rng=task.rng)`` once
    per task: both paths spawn the per-record generators the same way.
    """

    tasks: Tuple[MeasurementTask, ...]
    groups: Tuple[PlanGroup, ...]
    #: The sub-batch size cap this plan was built with (``None`` =
    #: unchunked); resumed re-plans inherit it so checkpoint
    #: granularity survives an interruption.
    max_group_size: Optional[int] = None

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_batched_tasks(self) -> int:
        """Tasks that run inside a multi-device batch."""
        return sum(g.n_tasks for g in self.groups if g.batched)

    def _measure_fallback(self, engine, tasks, allow_failures: bool) -> List:
        """Per-task measurement of a singleton / unbatchable group."""
        out: List = []
        for task in tasks:
            try:
                out.append(
                    engine.measure(task.source, task.estimator, rng=task.rng)
                )
            except MeasurementError:
                if not allow_failures:
                    raise
                out.append(None)
        return out

    def _task_keys(self, engine) -> Optional[List[Optional[str]]]:
        """Provenance keys of every task, or ``None`` without a store.

        Computed *before* any execution: a task generator's key covers
        its spawn count, so keying after the group ran would address a
        different (consumed) stream.
        """
        if engine.store is None:
            return None
        return [
            engine.task_key(t.source, t.estimator, t.rng)
            for t in self.tasks
        ]

    def _commit(self, engine, keys, group, out, results) -> None:
        """Scatter one group's results; persist them when the engine
        writes to a store (per group, so an interrupted plan keeps
        every group that completed).  The parent writes every result
        (:meth:`~repro.engine.engine.MeasurementEngine.persist_results`).
        """
        for index, result in zip(group.indices, out):
            results[index] = result
        if keys is not None:
            engine.persist_results(
                [(keys[index], results[index]) for index in group.indices]
            )

    def run(
        self,
        engine,
        allow_failures: bool = False,
        resume: bool = False,
        on_group_end: Optional[Callable[[int, int], None]] = None,
    ) -> List:
        """Execute the plan on an engine; results in task order.

        :meth:`run_report`, then a raise: every group runs — on the
        process backend each batched group fans out over the worker
        pool inside ``engine.measure_devices`` — and with a
        store-carrying engine every group that completes is persisted
        as the plan advances.  If any group failed, the first failed
        group's original exception (a task's
        :class:`~repro.errors.MeasurementError`, say) is raised after
        the last group; a failed group does not stop the groups after
        it, and a later ``resume=True`` pass re-measures only what is
        missing.

        ``resume=True`` replays an interrupted plan by loading stored
        results and re-planning *only* the missing tasks into fresh
        sub-batches — stored tasks are never re-acquired.  Results are
        identical to a cold run (the store round-trip is bit-exact).

        ``on_group_end(group_index, n_groups)`` is a checkpoint hook
        invoked after each group's results are committed (and, with a
        store, persisted).  An exception it raises — like any
        ``BaseException`` — stops the remaining groups at once but
        loses nothing already committed: the measurement service's
        drain/deadline/preemption points.
        """
        report = self.run_report(
            engine,
            allow_failures=allow_failures,
            resume=resume,
            on_group_end=on_group_end,
        )
        for group in report.groups:
            if group.status == "failed":
                raise group.exception
        return report.results

    def run_report(
        self,
        engine,
        allow_failures: bool = False,
        resume: bool = False,
        on_group_end: Optional[Callable[[int, int], None]] = None,
    ) -> RunReport:
        """Execute the plan with graceful degradation; return a report.

        A group that fails terminally (a task dead-lettered past its
        retries, a pool past its respawn budget, an unexpected error)
        does *not* abort the plan: the group is recorded as
        ``"failed"`` in the report and every remaining group still
        runs — and, on store-backed engines, is persisted — so one
        poisoned sub-batch costs its own tasks, not the lot.  The
        report carries the worker-pool telemetry this run consumed
        (attempts / retries / timeouts / respawns / dead letters) and,
        when a fault injector is active, the per-site counts of faults
        injected during the run.

        Groups execute sequentially, so the report attributes
        wall-clock and telemetry per group.  ``resume=True`` loads
        stored tasks and re-plans and executes only the missing ones,
        with the served tasks counted in ``cached_tasks``.

        ``on_group_end(group_index, n_groups)`` is the checkpoint hook:
        it fires after each group commits, and an exception it raises
        stops the remaining groups while keeping everything already
        committed (unlike a group *failure*, which is recorded and
        skipped over).
        """
        started_wall = time.time()
        start = time.monotonic()
        pool = engine.worker_pool
        before = _pool_snapshot(pool)
        injector = active_injector()
        injected_before = len(injector.log) if injector is not None else 0
        obs_before = obs.snapshot()
        obs.trace_event(
            "plan.run", groups=len(self.groups), tasks=len(self.tasks)
        )

        if resume:
            report = self._run_report_resumed(
                engine, allow_failures, on_group_end
            )
        else:
            results: List = [None] * len(self.tasks)
            group_reports: List[GroupReport] = []
            keys = self._task_keys(engine)
            for gi, group in enumerate(self.groups):
                t0 = time.monotonic()
                tasks = [self.tasks[i] for i in group.indices]
                with obs.trace_span(
                    "plan.group",
                    index=gi,
                    n_tasks=group.n_tasks,
                    batched=group.batched,
                ):
                    try:
                        if group.batched:
                            out = engine.measure_devices(
                                [t.source for t in tasks],
                                [t.estimator for t in tasks],
                                rngs=[t.rng for t in tasks],
                                allow_failures=allow_failures,
                            )
                        else:
                            out = self._measure_fallback(
                                engine, tasks, allow_failures
                            )
                        self._commit(engine, keys, group, out, results)
                        status, error, exception = "ok", "", None
                    except Exception as exc:
                        status, error, exception = "failed", repr(exc), exc
                wall = time.monotonic() - t0
                obs.observe("scheduler.group_seconds", wall)
                group_reports.append(
                    GroupReport(
                        index=gi,
                        n_tasks=group.n_tasks,
                        batched=group.batched,
                        status=status,
                        wall_s=wall,
                        error=error,
                        exception=exception,
                    )
                )
                if on_group_end is not None:
                    on_group_end(gi, len(self.groups))
            report = RunReport(results=results, groups=group_reports)

        after = _pool_snapshot(pool)
        report.attempts += after[0] - before[0]
        report.retries += after[1] - before[1]
        report.timeouts += after[2] - before[2]
        report.respawns += after[3] - before[3]
        if pool is not None and after[4] > before[4]:
            report.dead.extend(pool.telemetry.dead[before[4]:])
        if injector is not None:
            for record in injector.log[injected_before:]:
                report.injections[record.site] = (
                    report.injections.get(record.site, 0) + 1
                )
        report.wall_s = time.monotonic() - start
        report.started_at = started_wall
        report.finished_at = time.time()
        obs_after = obs.snapshot()
        if obs_after is not None:
            report.obs = diff_snapshots(obs_before, obs_after)
        return report

    def _run_report_resumed(
        self, engine, allow_failures: bool, on_group_end=None
    ) -> RunReport:
        """Resume path of :meth:`run_report`: serve stored tasks, run a
        sub-report over the missing ones, merge."""
        if not engine.cache_reads:
            raise ConfigurationError(
                "resume=True needs an engine with a store in a "
                "read-capable cache mode"
            )
        keys = self._task_keys(engine)
        results: List = [None] * len(self.tasks)
        missing: List[int] = []
        for i, key in enumerate(keys):
            hit = engine.store.get_result(key) if key is not None else None
            if hit is not None:
                results[i] = hit
            else:
                missing.append(i)
        cached = len(self.tasks) - len(missing)
        if not missing:
            return RunReport(results=results, cached_tasks=cached)
        subplan = plan_measurements(
            [self.tasks[i] for i in missing],
            max_group_size=self.max_group_size,
        )
        sub = subplan.run_report(
            engine, allow_failures=allow_failures, on_group_end=on_group_end
        )
        for local, i in enumerate(missing):
            results[i] = sub.results[local]
        return RunReport(
            results=results,
            groups=sub.groups,
            cached_tasks=cached,
        )


def _coerce_task(task) -> MeasurementTask:
    if isinstance(task, MeasurementTask):
        return task
    if isinstance(task, (tuple, list)):
        if len(task) == 2:
            source, estimator = task
            return MeasurementTask(source, estimator)
        if len(task) == 3:
            source, estimator, rng = task
            return MeasurementTask(source, estimator, rng)
    raise ConfigurationError(
        "measurement tasks must be MeasurementTask or (source, estimator"
        "[, rng]) tuples, got " + repr(type(task))
    )


def plan_measurements(
    tasks: Sequence, max_group_size: Optional[int] = None
) -> MeasurementPlan:
    """Group an arbitrary task mix into compatible sub-batches.

    Tasks sharing all analysis parameters (nperseg / window / overlap /
    sample rate / record length) whose sources implement the batch
    protocol form one multi-device sub-batch; everything else —
    singletons, sources without ``acquire_bitstreams`` — falls back
    to per-task measurement.  Group order follows first appearance and
    indices stay ascending, so execution is deterministic.

    ``max_group_size`` caps how many tasks one sub-batch may hold: a
    compatible run of tasks is split into consecutive chunks of at most
    that many.  Because every task carries its own generator, chunking
    never changes results — it only adds group boundaries, which is
    what gives a long lot *checkpoints*: per-group persistence,
    ``on_group_end`` preemption points and bounded loss on a drain
    (see :meth:`MeasurementPlan.run_report`).
    """
    if max_group_size is not None and max_group_size < 1:
        raise ConfigurationError(
            f"max_group_size must be >= 1, got {max_group_size}"
        )
    coerced = tuple(_coerce_task(t) for t in tasks)
    batchable: dict = {}
    order: List[GroupKey] = []
    fallback: List[int] = []
    for i, task in enumerate(coerced):
        if _can_batch(task.source):
            key = _group_key(task)
            if key not in batchable:
                batchable[key] = []
                order.append(key)
            batchable[key].append(i)
        else:
            fallback.append(i)

    groups: List[PlanGroup] = []
    for key in order:
        indices = batchable[key]
        if len(indices) < 2:
            fallback.extend(indices)
            continue
        step = max_group_size or len(indices)
        for lo in range(0, len(indices), step):
            chunk = indices[lo:lo + step]
            groups.append(
                PlanGroup(key, tuple(chunk), batched=len(chunk) >= 2)
            )
    for i in sorted(fallback):
        groups.append(
            PlanGroup(_group_key(coerced[i]), (i,), batched=False)
        )
    obs.trace_event(
        "plan.created", tasks=len(coerced), groups=len(groups)
    )
    return MeasurementPlan(
        tasks=coerced,
        groups=tuple(groups),
        max_group_size=max_group_size,
    )


def _needs_retest(verdict) -> bool:
    """Whether a prior verdict sends a device back to the tester."""
    if isinstance(verdict, Verdict):
        return verdict in (Verdict.FAIL, Verdict.RETEST)
    if isinstance(verdict, str):
        try:
            return _needs_retest(Verdict(verdict))
        except ValueError:
            raise ConfigurationError(
                f"unknown verdict {verdict!r}; expected one of "
                f"{[v.value for v in Verdict]}"
            ) from None
    if isinstance(verdict, bool):
        return verdict
    raise ConfigurationError(
        f"verdicts must be Verdict, verdict strings or bools, got "
        f"{type(verdict).__name__}"
    )


def plan_retest(
    tasks: Sequence,
    verdicts: Sequence,
    retest_rngs: Optional[Sequence[GeneratorLike]] = None,
) -> MeasurementPlan:
    """Plan only the failed / guard-band devices of a prior screen.

    ``tasks`` is the full lot exactly as the original screen planned it
    (one per device, in device order); ``verdicts`` the prior
    production outcome per device (:class:`~repro.core.production.
    Verdict`, its string values, or booleans where ``True`` means
    re-measure).  Devices whose verdict is ``FAIL`` or ``RETEST`` are
    re-planned into compatible sub-batches under the usual rules —
    every other device belongs to no group, so :meth:`MeasurementPlan.
    run` leaves its slot ``None`` and the caller merges prior results
    over it (which is what makes a retest lot strictly cheaper than a
    full re-screen).

    ``retest_rngs`` optionally replaces the re-measured devices'
    generators (one entry per *task*, aligned with ``tasks``; entries
    of devices that are not re-measured are ignored).  Without it the
    retest replays each device's original seed — a pure recompute,
    which provenance-keyed stores will serve from cache.
    """
    coerced = list(_coerce_task(t) for t in tasks)
    verdicts = list(verdicts)
    if len(verdicts) != len(coerced):
        raise ConfigurationError(
            f"got {len(coerced)} tasks but {len(verdicts)} verdicts"
        )
    retest = [i for i, v in enumerate(verdicts) if _needs_retest(v)]
    if retest_rngs is not None:
        retest_rngs = list(retest_rngs)
        if len(retest_rngs) != len(coerced):
            raise ConfigurationError(
                f"got {len(coerced)} tasks but {len(retest_rngs)} "
                "retest generators"
            )
        for i in retest:
            task = coerced[i]
            coerced[i] = MeasurementTask(
                task.source, task.estimator, retest_rngs[i]
            )
    subplan = plan_measurements([coerced[i] for i in retest])
    groups = tuple(
        PlanGroup(
            group.key,
            tuple(retest[local] for local in group.indices),
            batched=group.batched,
        )
        for group in subplan.groups
    )
    return MeasurementPlan(tasks=tuple(coerced), groups=groups)


def MeasurementScheduler(**settings):
    """``MeasurementEngine(**settings)``: the name perfbench builds its
    lot engine with.  Other code constructs
    :class:`~repro.engine.engine.MeasurementEngine` directly."""
    from repro.engine.engine import MeasurementEngine

    return MeasurementEngine(**settings)
