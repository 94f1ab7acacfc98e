"""Tests for repro.buffers — the generalized scratch-array pools."""

import sys
import threading

import numpy as np
import pytest

from repro.buffers import ArrayPool, ThreadLocalArrayPool, default_pool
from repro.errors import ConfigurationError


class TestArrayPool:
    def test_same_key_reuses_array(self):
        pool = ArrayPool()
        a = pool.take("scratch", (4, 8))
        b = pool.take("scratch", (4, 8))
        assert a is b

    def test_shape_change_reallocates(self):
        pool = ArrayPool()
        a = pool.take("scratch", 16)
        b = pool.take("scratch", 32)
        assert a is not b
        assert b.shape == (32,)

    def test_dtype_change_reallocates(self):
        pool = ArrayPool()
        a = pool.take("scratch", 8)
        b = pool.take("scratch", 8, dtype=np.uint8)
        assert b.dtype == np.uint8
        assert a is not b

    def test_int_shape_accepted(self):
        pool = ArrayPool()
        assert pool.take("row", 7).shape == (7,)

    def test_negative_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrayPool().take("bad", (-1,))

    def test_accounting_and_clear(self):
        pool = ArrayPool()
        pool.take("a", 10)
        pool.take("b", (2, 5), dtype=np.float32)
        assert len(pool) == 2
        assert pool.nbytes == 10 * 8 + 10 * 4
        pool.clear()
        assert len(pool) == 0
        assert pool.nbytes == 0

    def test_default_pool_exists(self):
        arr = default_pool.take("test_buffers.unit", 3)
        assert arr.shape == (3,)


def _on_thread(fn):
    """Run ``fn`` on a new thread; return its result once it has ended."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    return out[0]


class TestThreadLocalArrayPool:
    def test_live_threads_never_share(self):
        pool = ThreadLocalArrayPool()
        mine = pool.take("scratch", 8)
        taken, release = threading.Event(), threading.Event()
        theirs = []

        def hold():
            theirs.append(pool.take("scratch", 8))
            taken.set()
            release.wait(10)

        worker = threading.Thread(target=hold)
        worker.start()
        assert taken.wait(10)
        try:
            assert theirs[0] is not mine
            assert pool.take("scratch", 8) is mine
        finally:
            release.set()
            worker.join(timeout=10)

    def test_ended_thread_hands_its_pool_on(self):
        # A short-lived helper (one per measure call) works in the warm
        # scratch of the helper before it: join returns only after the
        # ended thread has given its pool back.
        pool = ThreadLocalArrayPool()
        mine = pool.take("scratch", (2, 8))
        first = _on_thread(lambda: pool.take("scratch", (2, 8)))
        assert first is not mine
        for _ in range(20):
            assert _on_thread(lambda: pool.take("scratch", (2, 8))) is first

    def test_many_short_threads_share_no_live_pool(self):
        # Six callers each start helper threads one after another, as
        # concurrent measure calls do: a helper's scratch is never
        # written by another live helper, and pools are reused, not
        # multiplied (at most one per helper alive at once).
        pool = ThreadLocalArrayPool()
        n_callers, n_helpers = 6, 30
        seen, clashes = set(), []

        def helper(mark):
            scratch = pool.take("scratch", 256)
            seen.add(id(scratch))
            for _ in range(5):
                scratch.fill(mark)
                if not (scratch == mark).all():
                    clashes.append(mark)

        def caller(k):
            for i in range(n_helpers):
                worker = threading.Thread(target=helper, args=(k * 1000 + i,))
                worker.start()
                worker.join(timeout=10)
                if worker.is_alive():
                    clashes.append("stuck")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=caller, args=(k,))
                for k in range(n_callers)
            ]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
        assert not clashes
        assert 1 <= len(seen) <= n_callers
