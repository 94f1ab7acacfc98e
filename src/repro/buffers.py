"""Reusable scratch-array pools.

The comparator's batch path recycled one scratch row to avoid churning
hundreds of megabytes of fresh pages per paper-scale batch; this module
generalizes that discipline.  An :class:`ArrayPool` hands out named
scratch arrays that persist across calls, so the hot loops touch warm
pages instead of faulting new ones on every batch.  They are the
comparator's diff blocks, the packed-Welch unpack and windowed blocks,
the paper simulation's noise record, and a lot device's analog chain:
the testbench's source stack, each amplifier's noise and contributor
stacks, the shaped-noise and spectral-synthesis half-spectra, and the
float32 philox records that :meth:`~repro.instruments.testbench.
PrototypeTestbench.acquire_bitstreams` digitizes before it returns.

Ownership rule: an array returned by :meth:`ArrayPool.take` is valid
until the next ``take`` of the same name, so a function returns pooled
memory only when its caller passed that memory in as ``out=``; without
``out=`` it returns a fresh array.  Nested calls must not take the same
name: the DUT and the post-amplifier share their names only because
``process_batch`` returns fresh memory.  A plain :class:`ArrayPool`
is not thread-safe; the process-wide :data:`default_pool` is
**thread-local** (each thread sees its own pool), so the public APIs
that draw scratch from it — ``compare_batch``, the packed Welch
kernels, the analog chain — stay safe to call from concurrent threads.
A pool outlives its thread: when a thread ends, its pool goes to the
next new thread, so the short-lived helper thread of each
:meth:`~repro.engine.MeasurementEngine.measure` works in the warm
scratch of the one before it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

ShapeLike = Union[int, Tuple[int, ...]]


class ArrayPool:
    """Named, shape-checked scratch arrays reused across calls."""

    def __init__(self):
        self._arrays: Dict[str, np.ndarray] = {}

    def take(
        self, name: str, shape: ShapeLike, dtype=np.float64
    ) -> np.ndarray:
        """Return the scratch array for ``name``, (re)allocating on a
        shape or dtype change.

        Contents are uninitialized — callers must fully overwrite the
        region they use.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise ConfigurationError(f"invalid scratch shape {shape}")
        dtype = np.dtype(dtype)
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = np.empty(shape, dtype=dtype)
            self._arrays[name] = arr
        return arr

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(arr.nbytes for arr in self._arrays.values())

    def __len__(self) -> int:
        return len(self._arrays)

    def clear(self) -> None:
        """Release every pooled array."""
        self._arrays.clear()


class ThreadLocalArrayPool:
    """An :class:`ArrayPool` per thread behind one interface.

    Scratch handed out on one thread is invisible to every other, so
    concurrent callers of the pooled hot paths cannot corrupt each
    other's in-flight blocks.  When a thread ends, its pool is kept for
    the next thread that asks for one, so a new thread does not
    allocate (and fault) its scratch again; no pool ever serves two
    live threads.
    """

    def __init__(self):
        self._local = threading.local()
        self._idle: List[ArrayPool] = []

    def _pool(self) -> ArrayPool:
        lease = getattr(self._local, "lease", None)
        if lease is None:
            try:
                pool = self._idle.pop()
            except IndexError:
                pool = ArrayPool()
            lease = self._local.lease = _Lease(pool, self._idle)
        return lease.pool

    def take(
        self, name: str, shape: ShapeLike, dtype=np.float64
    ) -> np.ndarray:
        """This thread's scratch array for ``name`` (see
        :meth:`ArrayPool.take`)."""
        return self._pool().take(name, shape, dtype)

    @property
    def nbytes(self) -> int:
        """Bytes held by the calling thread's pool."""
        return self._pool().nbytes

    def __len__(self) -> int:
        return len(self._pool())

    def clear(self) -> None:
        """Release the calling thread's pooled arrays."""
        self._pool().clear()


class _Lease:
    """A thread's hold on its pool: the thread-local slot of
    :class:`ThreadLocalArrayPool`.  Python drops a thread's locals
    before ``Thread.join`` returns, so the pool is back in ``idle`` by
    then."""

    __slots__ = ("pool", "idle")

    def __init__(self, pool: ArrayPool, idle: List[ArrayPool]):
        self.pool = pool
        self.idle = idle

    def __del__(self):
        self.idle.append(self.pool)


#: Process-wide default pool used by the hot paths (thread-local).
default_pool = ThreadLocalArrayPool()
