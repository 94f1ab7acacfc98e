"""Shared shutdown machinery: signal trapping and pool draining.

Both halves of PR 9's interrupt story live here so they cannot drift
apart: the daemon's SIGTERM drain and the CLI's Ctrl-C handling use
the same trap-and-drain helpers, and both report through the same
distinct exit codes.

Exit codes:

``EXIT_INTERRUPTED`` (130)
    a CLI command was interrupted and drained cleanly — the
    conventional ``128 + SIGINT`` so shell scripts see the interrupt.
``EXIT_JOBS_DROPPED`` (70)
    the daemon drained but acknowledged jobs did not finish; they
    remain journaled and a restarted daemon resumes them (``EX_SOFTWARE``
    repurposed as "work remains").
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Optional

__all__ = [
    "EXIT_INTERRUPTED",
    "EXIT_JOBS_DROPPED",
    "ServiceInterrupt",
    "drain_engine",
    "trap_signals",
]

EXIT_INTERRUPTED = 130
EXIT_JOBS_DROPPED = 70


class ServiceInterrupt(BaseException):
    """SIGINT/SIGTERM converted to a catchable control-flow exception.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): no
    library-level ``except Exception`` may swallow a drain request.
    """

    def __init__(self, signum: int):
        self.signum = int(signum)
        super().__init__(f"interrupted by signal {signum}")


@contextmanager
def trap_signals(signums=(signal.SIGINT, signal.SIGTERM)):
    """Raise :class:`ServiceInterrupt` in the main thread on a signal.

    Installs handlers for the block and restores the previous ones on
    exit.  A second signal while the first is being handled falls
    through to the previous handler (for SIGINT usually
    ``KeyboardInterrupt``) so a stuck drain can still be escalated.
    Outside the main thread (where CPython forbids ``signal.signal``)
    this is a no-op pass-through.
    """
    fired = {"signum": None}

    def _handler(signum, frame):
        if fired["signum"] is None:
            fired["signum"] = signum
            raise ServiceInterrupt(signum)
        # Second signal: restore default behaviour and re-deliver.
        signal.signal(signum, previous.get(signum, signal.SIG_DFL))
        signal.raise_signal(signum)

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in signums:
            previous[signum] = signal.signal(signum, _handler)
    try:
        yield fired
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def drain_engine(engine, kill_after_s: Optional[float] = 10.0) -> bool:
    """Gracefully release an engine's pool, killing hung workers.

    ``engine.close()`` shuts the worker pool down and enforces the
    store budget — but ``shutdown(wait=True)`` blocks forever behind a
    genuinely hung worker, which is exactly the state an interrupt
    often finds.  A timer thread kills the worker processes after
    ``kill_after_s`` so the drain always terminates.  Returns ``True``
    for a clean drain, ``False`` if workers had to be killed.
    """
    pool = engine.worker_pool
    killed = threading.Event()
    timer = None
    if pool is not None and kill_after_s is not None:

        def _kill():
            killed.set()
            pool._kill_workers()

        timer = threading.Timer(float(kill_after_s), _kill)
        timer.daemon = True
        timer.start()
    try:
        engine.close()
    finally:
        if timer is not None:
            timer.cancel()
    return not killed.is_set()
