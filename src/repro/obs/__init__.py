"""Process-global observability: metrics registry + span tracing.

``repro.obs`` is the one telemetry surface for the whole stack —
engine, scheduler, workers, store, faults, and the measurement service
all talk to the module-level hooks here (:func:`inc`, :func:`gauge`,
:func:`observe`, :func:`timed`, :func:`trace_span`,
:func:`trace_event`).  The design contract is the same as
:mod:`repro.faults`: **disabled is the default and costs one global
``None``-check per hook** — no allocation, no lock, no branch beyond
``if _STATE is None: return`` — so the measurement path stays
bit-identical (``tests/unit/test_obs.py::TestInertness``) and within
2% of an un-instrumented build (the obs claim of
``benchmarks/bench_claims.py``).  Enabled, every hook is a dict update
under a short-held lock (:class:`~repro.obs.registry.MetricsRegistry`)
or a bounded ring append (:class:`~repro.obs.trace.TraceBuffer`).

Enable explicitly with :func:`enable` (the service daemon does), or
ambiently with ``REPRO_OBS=1`` in the environment — worker processes
inherit the environment, and :func:`repro.engine.scheduler` also
threads an explicit flag through its worker initializer so pools
spawned before ``enable()`` still pick it up.  Worker-side telemetry
is accumulated in the worker's own process-global registry, snapshot
via :func:`snapshot_and_reset` at task-return time, and merged into
the parent registry as each task result arrives — observability
composes with the process backend without any shared-memory
coordination.

Exposition lives in :mod:`repro.obs.export` (Prometheus text) and the
JSON-ready :func:`snapshot`; the daemon's ``metrics`` op returns both.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional

from repro.obs.export import render_prometheus
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import DEFAULT_CAPACITY, TraceBuffer

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "MetricsRegistry",
    "TraceBuffer",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "inc",
    "merge",
    "merge_snapshots",
    "observe",
    "registry",
    "render_prometheus",
    "reset",
    "snapshot",
    "snapshot_and_reset",
    "timed",
    "trace_buffer",
    "trace_event",
    "trace_events",
    "trace_span",
]


class _ObsState:
    """Everything that exists only while observability is on."""

    __slots__ = ("registry", "trace")

    def __init__(self):
        self.registry = MetricsRegistry()
        self.trace = TraceBuffer()


#: ``None`` while disabled — every hook below checks exactly this.
_STATE: Optional[_ObsState] = None

#: Per-thread stack of active span ids (log records pick up the top).
_SPANS = threading.local()


def _env_truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def enable() -> None:
    """Turn observability on (idempotent; keeps accumulated state)."""
    global _STATE
    if _STATE is None:
        _STATE = _ObsState()


def disable() -> None:
    """Turn observability off and drop all accumulated state."""
    global _STATE
    _STATE = None


def enabled() -> bool:
    return _STATE is not None


# ----------------------------------------------------------------------
# Metric hooks (single None-check when disabled)
# ----------------------------------------------------------------------
def inc(name: str, value: float = 1.0, tags: Optional[dict] = None) -> None:
    state = _STATE
    if state is None:
        return
    state.registry.inc(name, value, tags)


def gauge(name: str, value: float, tags: Optional[dict] = None) -> None:
    state = _STATE
    if state is None:
        return
    state.registry.gauge(name, value, tags)


def observe(name: str, value: float,
            tags: Optional[dict] = None) -> None:
    state = _STATE
    if state is None:
        return
    state.registry.observe(name, value, tags)


class _NullContext:
    """Shared no-op context manager for every disabled-path ``with``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class _Timer:
    __slots__ = ("state", "name", "tags", "t0")

    def __init__(self, state: _ObsState, name: str,
                 tags: Optional[dict]):
        self.state = state
        self.name = name
        self.tags = tags

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.state.registry.observe(
            self.name, time.monotonic() - self.t0, self.tags
        )
        return False


def timed(name: str, tags: Optional[dict] = None):
    """``with timed("store.put_seconds"):`` — histogram observation."""
    state = _STATE
    if state is None:
        return _NULL
    return _Timer(state, name, tags)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("state", "name", "tags", "span_id")

    def __init__(self, state: _ObsState, name: str, tags: dict):
        self.state = state
        self.name = name
        self.tags = tags

    def __enter__(self):
        self.span_id = self.state.trace.next_span_id()
        stack = getattr(_SPANS, "stack", None)
        if stack is None:
            stack = _SPANS.stack = []
        stack.append(self.span_id)
        self.state.trace.record(
            self.name, "begin", self.span_id, tags=self.tags
        )
        return self.span_id

    def __exit__(self, exc_type, exc, tb):
        tags = {"error": exc_type.__name__} if exc_type else None
        self.state.trace.record(self.name, "end", self.span_id, tags=tags)
        stack = getattr(_SPANS, "stack", None)
        if stack and stack[-1] == self.span_id:
            stack.pop()
        return False


def trace_span(name: str, **tags):
    """``with trace_span("job.execute", key=...) as span_id:``

    Records paired ``begin``/``end`` events (monotonic clock) into the
    bounded ring; the span id is also pushed on a per-thread stack so
    structured log records can attach it (:func:`current_span_id`).
    """
    state = _STATE
    if state is None:
        return _NULL
    return _Span(state, name, tags)


def trace_event(name: str, **tags) -> None:
    """One instantaneous event (fault injections, retries, respawns)."""
    state = _STATE
    if state is None:
        return
    stack = getattr(_SPANS, "stack", None)
    state.trace.record(
        name, "event",
        stack[-1] if stack else None,
        tags=tags or None,
    )


def current_span_id() -> Optional[str]:
    """The innermost active span id on this thread, or ``None``."""
    stack = getattr(_SPANS, "stack", None)
    return stack[-1] if stack else None


# ----------------------------------------------------------------------
# Access / accumulation
# ----------------------------------------------------------------------
def registry() -> Optional[MetricsRegistry]:
    state = _STATE
    return None if state is None else state.registry


def trace_buffer() -> Optional[TraceBuffer]:
    state = _STATE
    return None if state is None else state.trace


def snapshot() -> Optional[dict]:
    """JSON-ready snapshot of the process-global registry (or None)."""
    state = _STATE
    return None if state is None else state.registry.snapshot()


def snapshot_and_reset() -> Optional[dict]:
    """Atomic drain of the registry — the worker-side merge primitive."""
    state = _STATE
    return None if state is None else state.registry.snapshot_and_reset()


def merge(snap: Optional[dict]) -> None:
    """Fold a worker/foreign snapshot into the process registry."""
    state = _STATE
    if state is None or not snap:
        return
    state.registry.merge(snap)


def trace_events() -> List[dict]:
    state = _STATE
    return [] if state is None else state.trace.events()


def reset() -> None:
    """Clear metrics and trace (keeps observability enabled)."""
    state = _STATE
    if state is not None:
        state.registry.reset()
        state.trace.clear()


# Ambient opt-in: worker processes inherit the environment, so a parent
# that exports REPRO_OBS=1 gets telemetry from every process it spawns.
if _env_truthy(os.environ.get("REPRO_OBS")):
    enable()
