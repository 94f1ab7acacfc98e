"""Advisory file locks for multi-writer coordination.

The service journal (:mod:`repro.service.journal`) takes an ``flock``
on a small lock file whenever it creates, appends to or rotates its
segments.  Result-store
payloads need no lock — ``os.replace`` publishes them atomically and
identical keys imply identical bytes — so no store operation takes one.

Locks are acquired non-blocking in a poll loop so a timeout can be
enforced, and the ``store_lock`` fault site can deterministically
simulate losing the first race (the caller backs off and retries,
exercising the contention path without a second process).

On platforms without ``fcntl`` the locks degrade to no-ops; only
concurrent journal writers are unprotected there.
"""

from __future__ import annotations

import errno
import os
import pathlib
import time
from contextlib import contextmanager

from repro.faults.injector import store_lock_fault

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None
    _HAVE_FCNTL = False

__all__ = ["LockTimeout", "file_lock"]

#: How long an acquire may poll before giving up.  Critical sections
#: are tiny (one record append, one rotation), so a healthy peer
#: releases within milliseconds; a 30 s timeout only fires when a lock
#: holder is truly wedged.
DEFAULT_TIMEOUT_S = 30.0

_POLL_S = 0.005


class LockTimeout(OSError):
    """An ``flock`` could not be acquired within the timeout."""


@contextmanager
def file_lock(
    path: pathlib.Path,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    poll_s: float = _POLL_S,
):
    """Hold an exclusive advisory lock on ``path`` for the block.

    The lock file is created on demand (it carries no data and is never
    removed — unlinking a lock file open in another process would split
    the lock).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if _HAVE_FCNTL:
            _acquire(fd, path, timeout_s, poll_s)
        yield
    finally:
        if _HAVE_FCNTL:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover - close releases anyway
                pass
        os.close(fd)


def _acquire(fd: int, path: pathlib.Path, timeout_s: float, poll_s: float):
    deadline = time.monotonic() + float(timeout_s)
    # Injected contention: behave as if another writer beat us to the
    # first attempt, then proceed through the normal retry path.
    lost_race = store_lock_fault()
    while True:
        if lost_race:
            lost_race = False
        else:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError as exc:
                if exc.errno not in (errno.EAGAIN, errno.EACCES):
                    raise
        if time.monotonic() >= deadline:
            raise LockTimeout(
                f"could not acquire {path} within {timeout_s:.1f}s"
            )
        time.sleep(poll_s)
