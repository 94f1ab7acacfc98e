"""Deterministic fault injection: the injector and its runtime hooks.

Injection decisions are *counter-based*: each draw seeds a fresh
``numpy`` generator from ``(plan seed, site id, invocation
coordinates)`` and fires when its first uniform lands under the site's
probability.  No shared stream is consumed, so a decision depends only
on its own coordinates — replaying a run (same plan, same dispatch
coordinates) replays the same faults, and a *retry* of a task draws at
its new attempt number instead of re-hitting the same fault forever.

The execution stack reaches the injector through module-level hooks
(:func:`task_fault`, :func:`store_fault` and the other ``*_fault``
functions) that read the process-global active injector installed by
:func:`inject`.  With no injector active every hook is a single
``None`` check — the fault-free hot path stays unmeasurable (see
``benchmarks/bench_faults.py``).

Worker-side faults (crash / hang / transient exception) are decided in
the *parent* at dispatch time and shipped to the worker as a
:class:`FaultDirective` wrapped around the real call
(:func:`faulted_call`), which keeps the decision stream deterministic
and the worker logic trivial.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import SITE_IDS, SITES, FaultPlan
from repro import obs

__all__ = [
    "FaultDirective",
    "FaultInjector",
    "InjectionRecord",
    "InjectedTaskError",
    "active_injector",
    "client_disconnect_fault",
    "faulted_call",
    "inject",
    "job_deadline_fault",
    "journal_torn_fault",
    "store_fault",
    "store_lock_fault",
    "task_fault",
]


class InjectedTaskError(RuntimeError):
    """The transient failure an injected ``task_exception`` raises.

    Deliberately *not* a :class:`~repro.errors.MeasurementError`: the
    retry policy treats domain errors as deterministic (no retry) and
    everything else as transient — an injected fault must look
    transient.
    """


@dataclass(frozen=True)
class FaultDirective:
    """One worker-side fault, decided parent-side at dispatch time."""

    action: str  # "crash" | "hang" | "raise"
    hang_seconds: float = 30.0
    detail: str = ""


@dataclass(frozen=True)
class InjectionRecord:
    """One fired fault, as the injection log remembers it."""

    site: str
    sequence: int  # per-site ordinal, 0-based
    coordinates: Tuple  # the draw's deterministic coordinates
    detail: str = ""


class FaultInjector:
    """Draws deterministic faults from a :class:`FaultPlan` and logs them.

    Thread-safe: the service's event-loop and executor threads both
    reach the hooks, and the log/caps must not race.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: List[InjectionRecord] = []
        self._counts: Dict[str, int] = {site: 0 for site in SITES}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _draw(self, site: str, coordinates: Tuple, detail: str) -> bool:
        """One seeded Bernoulli draw; logs and counts a hit."""
        p = float(getattr(self.plan, site))
        if p <= 0.0:
            return False
        seed = (
            int(self.plan.seed) & 0xFFFFFFFF,
            SITE_IDS[site],
            *(c & 0xFFFFFFFFFFFFFFFF for c in coordinates),
        )
        hit = np.random.default_rng(seed).random() < p
        if not hit:
            return False
        with self._lock:
            cap = self.plan.max_per_site
            if cap is not None and self._counts[site] >= cap:
                return False
            sequence = self._counts[site]
            self.log.append(
                InjectionRecord(
                    site=site,
                    sequence=sequence,
                    coordinates=coordinates,
                    detail=detail,
                )
            )
            self._counts[site] += 1
        obs.inc("faults.injected", tags={"site": site})
        obs.trace_event(
            "fault.injected", site=site, sequence=sequence, detail=detail
        )
        return True

    def _sequence(self, site: str) -> int:
        """A monotonic per-site counter (sites without natural
        coordinates, e.g. lock acquisitions, draw on it)."""
        with self._lock:
            n = self._counts.get(f"_seq_{site}", 0)
            self._counts[f"_seq_{site}"] = n + 1
        return n

    # ------------------------------------------------------------------
    # Site-specific draws
    # ------------------------------------------------------------------
    def task_directive(
        self, run_seq: int, index: int, attempt: int
    ) -> Optional[FaultDirective]:
        """The worker-side fault (if any) for one task dispatch.

        Coordinates are ``(pool run sequence, task index, attempt)`` —
        a retry draws fresh, so a task is never doomed to repeat its
        fault, and the same dispatch always redraws the same fault.
        Sites are consulted in :data:`~repro.faults.plan.SITES` order;
        the first hit wins.
        """
        coords = (int(run_seq), int(index), int(attempt))
        detail = f"run={run_seq} task={index} attempt={attempt}"
        if self._draw("worker_crash", coords, detail):
            return FaultDirective("crash", detail=detail)
        if self._draw("worker_hang", coords, detail):
            return FaultDirective(
                "hang", hang_seconds=self.plan.hang_seconds, detail=detail
            )
        if self._draw("task_exception", coords, detail):
            return FaultDirective("raise", detail=detail)
        return None

    def store_directive(self, key: str, write_seq: int) -> Optional[str]:
        """How one store payload write should be damaged (or ``None``).

        Keyed by the payload's content address plus a per-key write
        sequence: the first (corrupted) write and the rewrite after
        quarantine draw independently, so recovery converges.
        """
        prefix = int(str(key)[:15] or "0", 16)
        coords = (prefix, int(write_seq))
        detail = f"key={str(key)[:12]} write={write_seq}"
        if self._draw("store_truncate", coords, detail):
            return "truncate"
        if self._draw("store_corrupt", coords, detail):
            return "corrupt"
        return None

    def lock_directive(self) -> bool:
        """Whether this lock acquisition should lose its first race.

        A fired fault makes the acquire path behave as if another
        writer held the lock — the caller backs off and retries, so
        the operation still succeeds (the site exercises contention
        handling, not failure)."""
        seq = self._sequence("store_lock")
        return self._draw("store_lock", (seq,), f"acquire={seq}")

    def journal_torn_directive(self) -> bool:
        """Whether this service-journal append should land torn."""
        seq = self._sequence("journal_torn_write")
        return self._draw("journal_torn_write", (seq,), f"append={seq}")

    def client_disconnect_directive(self) -> bool:
        """Whether this service response should be lost to a dropped
        connection (the request itself — and any journal append it
        caused — has already happened)."""
        seq = self._sequence("client_disconnect")
        return self._draw("client_disconnect", (seq,), f"response={seq}")

    def job_deadline_directive(self, job_key: str, check_seq: int) -> bool:
        """Whether a job's deadline should be forced expired at this
        checkpoint.

        Keyed by the job's idempotency key plus the checkpoint ordinal,
        so a *resubmitted* job (same key, fresh checks) redraws the same
        early expiries while later checkpoints draw independently.
        """
        prefix = int(str(job_key)[:15] or "0", 16)
        coords = (prefix, int(check_seq))
        detail = f"job={str(job_key)[:12]} check={check_seq}"
        return self._draw("job_deadline", coords, detail)

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Fired injections per site (only sites that fired)."""
        with self._lock:
            out: Dict[str, int] = {}
            for record in self.log:
                out[record.site] = out.get(record.site, 0) + 1
            return out

    def summary(self) -> dict:
        """JSON-ready injection report."""
        return {
            "plan": self.plan.describe(),
            "n_injected": len(self.log),
            "by_site": self.counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({len(self.log)} injected, plan={self.plan})"


# ----------------------------------------------------------------------
# Process-global active injector
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The injector installed by :func:`inject`, or ``None``."""
    return _ACTIVE


@contextmanager
def inject(plan_or_injector):
    """Install a fault injector for the duration of a ``with`` block.

    Accepts a :class:`FaultPlan` (a fresh injector is built and
    yielded) or an existing :class:`FaultInjector` (reused, so a test
    can pre-seed or inspect it).  Nested installs are rejected — two
    overlapping chaos scopes would make the decision streams
    ambiguous.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault injector is already active")
    injector = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


# ----------------------------------------------------------------------
# Hooks the execution stack calls (each a single None-check when idle)
# ----------------------------------------------------------------------
def task_fault(
    run_seq: int, index: int, attempt: int
) -> Optional[FaultDirective]:
    """Worker-side fault for one task dispatch, or ``None``."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.task_directive(run_seq, index, attempt)


def store_fault(key: str, write_seq: int) -> Optional[str]:
    """``"truncate"`` / ``"corrupt"`` / ``None`` for one store write."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.store_directive(key, write_seq)


def store_lock_fault() -> bool:
    """Whether the current lock acquisition should lose its first race."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.lock_directive()


def journal_torn_fault() -> bool:
    """Whether the current service-journal append should be torn."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.journal_torn_directive()


def client_disconnect_fault() -> bool:
    """Whether the current service response should be dropped."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.client_disconnect_directive()


def job_deadline_fault(job_key: str, check_seq: int) -> bool:
    """Whether a job's deadline should be forced expired right now."""
    if _ACTIVE is None:
        return False
    return _ACTIVE.job_deadline_directive(job_key, check_seq)


# ----------------------------------------------------------------------
# Worker-side execution of a directive
# ----------------------------------------------------------------------
def faulted_call(payload):
    """Run one task under a :class:`FaultDirective` (module-level so the
    process backend can pickle it).

    ``crash`` kills the worker process outright (the parent sees a
    broken pool); ``hang`` blocks for the plan's ``hang_seconds`` and
    *then* runs the task — so a pool without hung-worker detection
    still finishes, slowly, instead of deadlocking; ``raise`` throws a
    retryable :class:`InjectedTaskError`.
    """
    directive, fn, inner = payload
    if directive.action == "crash":
        os._exit(77)
    if directive.action == "hang":
        time.sleep(directive.hang_seconds)
    elif directive.action == "raise":
        raise InjectedTaskError(
            f"injected transient task failure ({directive.detail})"
        )
    return fn(inner)
