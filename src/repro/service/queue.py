"""Admission control: a bounded priority queue with dedup and shedding.

The service never buffers unboundedly: a queue at ``max_depth`` sheds
the next submission with an explicit REJECTED(backpressure) verdict
instead of accepting work it cannot promise to run.  Within the bound,
jobs are ordered by kind priority (``measure`` before ``retest``
before ``lot`` — interactive probes must not wait behind bulk screens)
and FIFO within a priority.

Dedup rides on the store's content addressing: every job's
:meth:`~repro.service.protocol.JobSpec.key` is a SHA-256 digest of the
spec, so a spec already queued or running is acknowledged as
``duplicate`` and attached to the in-flight execution — the second
client gets the first client's result, and nothing is computed twice.

All state transitions go through one lock + condition pair; the
executor thread blocks in :meth:`claim` while the asyncio front-end
submits from the event-loop thread.  The clock is injectable so
deadline expiry is unit-testable without sleeping.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.service.protocol import JobSpec

__all__ = ["Job", "JobQueue", "ADMITTED", "DUPLICATE", "REJECTED"]

ADMITTED = "accepted"
DUPLICATE = "duplicate"
REJECTED = "rejected"

#: Lifecycle states a job moves through.
_STATES = ("queued", "running", "ok", "failed", "deadline", "dropped")


@dataclass
class Job:
    """One admitted job and its lifecycle state."""

    key: str
    spec: JobSpec
    submitted_at: float
    seq: int = 0  # admission order; FIFO tiebreak within a priority
    state: str = "queued"
    result: Optional[dict] = None
    error: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Checkpoints the running job has passed (deadline draws key on it).
    checks: int = 0
    #: Set when replayed from the journal rather than freshly submitted.
    replayed: bool = False

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def done(self) -> bool:
        return self.state in ("ok", "failed", "deadline", "dropped")

    def remaining_s(self, now: float) -> Optional[float]:
        """Wall-clock budget left, or ``None`` for budget-less jobs."""
        if self.spec.deadline_s is None:
            return None
        return float(self.spec.deadline_s) - (now - self.submitted_at)

    def expired(self, now: float) -> bool:
        remaining = self.remaining_s(now)
        return remaining is not None and remaining <= 0.0

    def describe(self) -> dict:
        """JSON-ready lifecycle view (the ``status`` op returns it)."""
        return {
            "key": self.key,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.priority,
            "deadline_s": self.spec.deadline_s,
            "result": self.result,
            "error": self.error,
            "replayed": self.replayed,
        }


class JobQueue:
    """Thread-safe bounded priority queue with idempotency-key dedup."""

    def __init__(
        self,
        max_depth: int = 64,
        clock: Callable[[], float] = time.monotonic,
        on_expire: Optional[Callable[[Job], None]] = None,
        completed_retain: int = 256,
    ):
        if max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        if completed_retain < 1:
            raise ConfigurationError(
                f"completed_retain must be >= 1, got {completed_retain}"
            )
        self.max_depth = int(max_depth)
        self.completed_retain = int(completed_retain)
        self.clock = clock
        #: Called (under the queue lock — do not reenter the queue) for
        #: every job the queue itself expires without running, so the
        #: owner can journal the terminal state and wake its waiters.
        self.on_expire = on_expire
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: Live jobs plus the ``completed_retain`` most recent finished
        #: ones (kept for dedup/cached answers); older completed jobs
        #: are evicted so a long-lived daemon's memory stays bounded —
        #: their results live on in the content-addressed store.
        self._jobs: Dict[str, Job] = {}
        self._completed: "deque" = deque()  # finished keys, oldest first
        self._pending: List[Job] = []
        self._seq = itertools.count()
        self._draining = False
        # Admission counters (ServiceReport reads them).
        self.n_accepted = 0
        self.n_duplicates = 0
        self.n_shed = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Queued (not yet claimed) jobs."""
        with self._lock:
            return len(self._pending)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def get(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(key)

    # ------------------------------------------------------------------
    def submit(
        self, spec: JobSpec, replayed: bool = False, hold: bool = False
    ):
        """Admit one spec: ``(verdict, job-or-None)``.

        ``duplicate`` returns the live (or completed) job already
        holding the key; ``rejected`` returns ``None`` — backpressure
        when the queue is full, unconditional while draining.

        ``hold`` admits the job (dedupable, counted) but keeps it
        unclaimable until :meth:`release` — the supervisor's
        durable-before-runnable window while the journal append is in
        flight.  Without the hold a fast executor could *finish* the
        job (journaling its ``done``) before its ``accept`` record
        lands, and replay would resurrect it forever.
        """
        key = spec.key()
        with self._lock:
            existing = self._jobs.get(key)
            if existing is not None and not existing.done:
                self.n_duplicates += 1
                return DUPLICATE, existing
            if self._draining or len(self._pending) >= self.max_depth:
                self.n_shed += 1
                return REJECTED, None
            job = Job(
                key=key,
                spec=spec,
                submitted_at=self.clock(),
                seq=next(self._seq),
                replayed=replayed,
            )
            self._jobs[key] = job
            self.n_accepted += 1
            if not hold:
                self._pending.append(job)
                self._ready.notify()
            return ADMITTED, job

    def release(self, job: Job) -> bool:
        """Make a held job claimable (its accept record is durable).

        Returns ``False`` — finishing the job as ``dropped`` — if the
        queue started draining during the hold; the journaled accept
        makes the next daemon resume it.
        """
        with self._lock:
            if self._draining:
                self._finish_locked(
                    job, "dropped",
                    error="daemon drained before the job ran",
                )
                return False
            self._pending.append(job)
            self._ready.notify()
            return True

    # ------------------------------------------------------------------
    def _pop_best(self) -> Optional[Job]:
        if not self._pending:
            return None
        best = min(self._pending, key=lambda j: (j.priority, j.seq))
        self._pending.remove(best)
        return best

    def claim(self, timeout_s: Optional[float] = None) -> Optional[Job]:
        """Block for the highest-priority queued job and mark it running.

        Queued jobs whose deadline already expired are failed in place
        (``deadline``) without ever running — a budget spent waiting is
        still spent.  Returns ``None`` on timeout.
        """
        deadline = None if timeout_s is None else self.clock() + timeout_s
        with self._lock:
            while True:
                job = self._pop_best()
                while job is not None and job.expired(self.clock()):
                    self._expire_locked(job)
                    job = self._pop_best()
                if job is not None:
                    job.state = "running"
                    job.started_at = self.clock()
                    return job
                remaining = (
                    None if deadline is None else deadline - self.clock()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._ready.wait(timeout=remaining)

    def claim_nowait(self, max_priority: int) -> Optional[Job]:
        """A queued job at or above ``max_priority``, or ``None``.

        The preemption hook: a running lot's checkpoint asks for any
        waiting interactive job to run inline at the sub-batch
        boundary.
        """
        with self._lock:
            candidates = [
                j for j in self._pending if j.priority <= max_priority
            ]
            if not candidates:
                return None
            best = min(candidates, key=lambda j: (j.priority, j.seq))
            self._pending.remove(best)
            if best.expired(self.clock()):
                self._expire_locked(best)
                return None
            best.state = "running"
            best.started_at = self.clock()
            return best

    # ------------------------------------------------------------------
    def _expire_locked(self, job: Job) -> None:
        """Fail one queued job whose budget ran out before it started."""
        self._finish_locked(
            job, "deadline",
            error="deadline expired before the job started",
        )
        if self.on_expire is not None:
            self.on_expire(job)

    def _finish_locked(
        self, job: Job, state: str, result=None, error: str = ""
    ) -> None:
        if job in self._pending:
            self._pending.remove(job)
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = self.clock()
        self._completed.append(job.key)
        while len(self._completed) > self.completed_retain:
            old_key = self._completed.popleft()
            old = self._jobs.get(old_key)
            # The key may have been re-admitted (a live job now holds
            # it) or already evicted via an older deque entry; only a
            # still-completed job is dropped, and never the one being
            # finished right now (its waiters have not resolved yet).
            if old is not None and old.done and old is not job:
                del self._jobs[old_key]
        self._ready.notify_all()

    def finish(
        self, job: Job, state: str, result=None, error: str = ""
    ) -> None:
        """Move one claimed job to a terminal state."""
        if state not in ("ok", "failed", "deadline", "dropped"):
            raise ConfigurationError(f"bad terminal state {state!r}")
        with self._lock:
            self._finish_locked(job, state, result=result, error=error)

    def requeue(self, job: Job) -> None:
        """Put a claimed-but-preempted job back at its old position."""
        with self._lock:
            job.state = "queued"
            job.started_at = None
            self._pending.append(job)
            self._ready.notify()

    # ------------------------------------------------------------------
    def drain(self) -> List[Job]:
        """Stop admitting; return the still-queued jobs (now dropped).

        Queued jobs have been *acknowledged*, so the drain path must
        either journal them as dropped or count them against the exit
        code — the supervisor does both.
        """
        with self._lock:
            self._draining = True
            dropped = list(self._pending)
            self._pending.clear()
            for job in dropped:
                self._finish_locked(
                    job, "dropped", error="daemon drained before the job ran"
                )
            self._ready.notify_all()
            return dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._pending),
                "max_depth": self.max_depth,
                "accepted": self.n_accepted,
                "duplicates": self.n_duplicates,
                "shed": self.n_shed,
                "draining": self._draining,
            }
