"""Outside-in span tracer for the repro layers.

The benchmark never edits the program.  Instead :func:`install` wraps
the public functions and methods of every layer module (and the few
private service hooks that mark a job's boundaries) with a recorder.
Each call becomes one span: name, layer, start/end wall clock
(``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and so
comparable across processes), start/end process CPU time (all threads,
BLAS included), parent span, op id and thread.  Spans stay in memory
and are written out once, when the traced process ends.

Only the process that called :func:`install` records: forked pool
workers inherit the wrappers but pass straight through, so work done
inside workers shows up as the parent's ``engine.pool_wait`` row.

:func:`analyze` turns a span list into per-layer self times.  A span's
self time is its duration, clipped to the measured window, minus the
clipped durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Layer name -> module prefixes (the repo's modules, as the layers).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "signals": ("repro.signals",),
    "analog": ("repro.analog",),
    "instruments": ("repro.instruments",),
    "digitizer": ("repro.digitizer",),
    "bitstream": ("repro.bitstream",),
    "dsp": ("repro.dsp",),
    "kernels": ("repro.kernels",),
    "core": ("repro.core",),
    "engine": ("repro.engine.engine", "repro.engine.executors", "repro.engine.shm"),
    "scheduler": ("repro.engine.scheduler",),
    "store": ("repro.store",),
    "service": ("repro.service",),
    "experiments": ("repro.experiments",),
}

#: Rows that are waiting, not work: kept out of their layer's self time.
WAIT_ROWS = {
    "repro.engine.scheduler.WorkerPool.run": "engine.pool_wait",
    "repro.service.queue.JobQueue.claim": "service.idle_wait",
}

#: Private hooks that mark service-job boundaries (no public equivalent).
EXTRA_METHODS = (
    ("repro.service.supervisor", "MeasurementService", "_execute"),
    ("repro.service.supervisor", "MeasurementService", "_run_lot"),
    ("repro.service.supervisor", "MeasurementService", "_run_retest"),
    ("repro.service.supervisor", "MeasurementService", "_run_measure"),
)

#: Dispatch plumbing: its cost belongs to the caller, and the kernels it
#: hands out are wrapped at the point of dispatch instead.
SKIP_MODULES = ("repro.kernels.registry",)

#: Callables left unwrapped: the recursive per-attribute key helper
#: (thousands of calls per lot; its time belongs to the key computation
#: that calls it) and the daemon's whole life on its event-loop thread
#: (waiting, not work).
SKIP_FUNCTIONS = (
    "repro.store.keys.fingerprint",
    "repro.service.supervisor.MeasurementService.run",
)

# Span tuple fields.
ID, PARENT, NAME, LAYER, T0, T1, C0, C1, OP, THREAD, TAG = range(11)

_spans: List[tuple] = []
_ids = itertools.count(1)
_tls = threading.local()
_pid: Optional[int] = None
_originals: Dict[int, object] = {}
_threads: Dict[int, str] = {}


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
        _threads[threading.get_ident()] = threading.current_thread().name
    return stack


def _layer_of(module: str) -> Optional[str]:
    for layer, prefixes in LAYERS.items():
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return layer
    return None


def _op_hint(args, result) -> Optional[str]:
    """The service job key a call is about, when it names one."""
    for value in args[1:3]:
        if isinstance(value, str) and len(value) == 64:
            return value
        key = getattr(value, "key", None)
        if isinstance(key, str):
            return key
    if isinstance(result, tuple) and len(result) == 2:
        key = getattr(result[1], "key", None)
        if isinstance(key, str):
            return key
    key = getattr(result, "key", None)
    return key if isinstance(key, str) else None


def _tag_of(qualname: str, args, kwargs, result):
    """Extra facts a few spans carry (counts the analysis needs)."""
    if qualname.endswith("welch_batch"):
        records, nperseg = args[0], args[1] if len(args) > 1 else kwargs["nperseg"]
        overlap = kwargs.get("overlap", args[4] if len(args) > 4 else 0.5)
        shape = getattr(records, "shape", None)
        return _segments(shape, nperseg, overlap)
    if qualname.endswith("welch_batch_shared"):
        batch, params = args[0], args[1]
        return _segments(batch.shape, params.nperseg, params.overlap)
    if qualname.endswith("MeasurementService._execute"):
        return bool(args[2] if len(args) > 2 else kwargs.get("nested", False))
    if qualname.endswith("get_result") or qualname.endswith("get_outcome"):
        return result is not None
    if qualname.endswith("JobQueue.submit") and isinstance(result, tuple):
        return str(result[0])
    return None


def _segments(shape, nperseg, overlap) -> int:
    if not shape or len(shape) != 2:
        return 0
    n_records, n_samples = int(shape[0]), int(shape[1])
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    if n_samples < nperseg:
        return 0
    return n_records * (1 + (n_samples - nperseg) // step)


def _record(qualname: str, layer: str, fn, tagged: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if os.getpid() != _pid:
            return fn(*args, **kwargs)
        stack = _stack()
        parent = stack[-1] if stack else None
        span_id = next(_ids)
        op = parent[2] if parent is not None else getattr(_tls, "op", None)
        if layer == "service":
            # A job preempting a lot runs inside the lot's span but is
            # its own op.
            op = _op_hint(args, None) or op
        frame = (span_id, parent[0] if parent else 0, op)
        stack.append(frame)
        t0, c0 = time.perf_counter(), time.process_time()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            stack.pop()
            if op is None and layer == "service":
                op = _op_hint(args, result)
            tag = _tag_of(qualname, args, kwargs, result) if tagged else None
            _spans.append(
                (span_id, frame[1], qualname, layer, t0, t1, c0, c1, op,
                 threading.get_ident(), tag)
            )

    traced.__perfbench_original__ = fn
    return traced


_TAGGED = ("welch_batch", "welch_batch_shared", "MeasurementService._execute",
           "get_result", "get_outcome", "JobQueue.submit")


def _wrap(qualname: str, layer: str, fn):
    if hasattr(fn, "__perfbench_original__"):
        return fn
    if id(fn) in _originals:
        return _originals[id(fn)]
    wrapped = _record(qualname, layer, fn, qualname.endswith(_TAGGED))
    _originals[id(fn)] = wrapped
    return wrapped


def _wrap_class(cls, module_name: str, layer: str, names=None) -> None:
    for attr, value in list(vars(cls).items()):
        if names is None and attr != "__init__" and attr.startswith("_"):
            continue
        if names is not None and attr not in names:
            continue
        qualname = f"{module_name}.{cls.__qualname__}.{attr}"
        if qualname in SKIP_FUNCTIONS:
            continue
        if isinstance(value, (staticmethod, classmethod)):
            inner = value.__func__
            if inspect.isfunction(inner):
                setattr(cls, attr, type(value)(_wrap(qualname, layer, inner)))
        elif inspect.isfunction(value) and not (
            inspect.isgeneratorfunction(value)
            or inspect.iscoroutinefunction(value)
        ):
            setattr(cls, attr, _wrap(qualname, layer, value))


def _layer_modules():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if _layer_of(info.name) is not None and not info.name.startswith(SKIP_MODULES):
            yield importlib.import_module(info.name)


def install() -> None:
    """Wrap every layer's public callables and start recording (in this
    process only)."""
    global _pid
    from repro.kernels import registry

    for module in _layer_modules():
        layer = _layer_of(module.__name__)
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException) or hasattr(obj, "_member_map_"):
                    continue
                _wrap_class(obj, module.__name__, layer)
            elif (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and f"{module.__name__}.{name}" not in SKIP_FUNCTIONS
                and not inspect.isgeneratorfunction(obj)
                and not inspect.iscoroutinefunction(obj)
            ):
                setattr(module, name, _wrap(f"{module.__name__}.{name}", layer, obj))
    for module_name, cls_name, method in EXTRA_METHODS:
        module = importlib.import_module(module_name)
        _wrap_class(getattr(module, cls_name), module_name, "service", {method})

    # Kernels are looked up per call, so the dispatcher hands out traced
    # implementations (one wrapper per kernel implementation).
    original_get_kernel = registry.get_kernel

    @functools.wraps(original_get_kernel)
    def get_kernel(name, *args, **kwargs):
        impl = original_get_kernel(name, *args, **kwargs)
        return _wrap(f"repro.kernels.{name}", "kernels", impl)

    _originals[id(original_get_kernel)] = get_kernel

    # Rebind every name that still points at an unwrapped original
    # (``from x import f`` copies made before install).
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for name, obj in list(vars(module).items()):
            wrapped = _originals.get(id(obj))
            if wrapped is not None and wrapped is not obj:
                setattr(module, name, wrapped)
    _pid = os.getpid()


def enable() -> None:
    """Record :class:`span` blocks in this process without wrapping the
    program (the service client side of a traced run)."""
    global _pid
    _pid = os.getpid()


class span:
    """A span recorded from the benchmark's own code (op or client call).

    Inert until :func:`install` or :func:`enable` ran in this process.
    """

    def __init__(self, name: str, op: Optional[str] = None):
        self.name, self.op = name, op

    def __enter__(self):
        self.on = os.getpid() == _pid
        if not self.on:
            return self
        stack = _stack()
        self.parent = stack[-1][0] if stack else 0
        self.id = next(_ids)
        self.prev_op = getattr(_tls, "op", None)
        if self.op is not None:
            _tls.op = self.op
        stack.append((self.id, self.parent, self.op or self.prev_op))
        self.t0, self.c0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        if not self.on:
            return False
        t1, c1 = time.perf_counter(), time.process_time()
        _tls.stack.pop()
        _tls.op = self.prev_op
        _spans.append(
            (self.id, self.parent, self.name, "bench", self.t0, t1,
             self.c0, c1, self.op or self.prev_op, threading.get_ident(), None)
        )
        return False


def spans() -> List[tuple]:
    return list(_spans)


def dump(path: str) -> None:
    """Write the recorded spans (one JSON document) to ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"threads": _threads, "spans": _spans}, fh)
    os.replace(tmp, path)


def load(path: str) -> Tuple[List[tuple], Dict[int, str]]:
    """Spans and thread names of a :func:`dump` file."""
    with open(path) as fh:
        doc = json.load(fh)
    threads = {int(ident): name for ident, name in doc["threads"].items()}
    return [tuple(s) for s in doc["spans"]], threads


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _clip(t0: float, t1: float, window: Tuple[float, float]) -> float:
    return max(0.0, min(t1, window[1]) - max(t0, window[0]))


def row_of(span: tuple) -> Optional[str]:
    """The stage-table row a span's self time lands in."""
    wait = WAIT_ROWS.get(span[NAME])
    if wait is not None:
        return wait
    layer = span[LAYER]
    return layer if layer in LAYERS else None


def analyze(
    span_list: Sequence[tuple],
    window: Tuple[float, float],
    critical_thread: Optional[int] = None,
) -> dict:
    """Per-row calls, self wall/CPU seconds over ``window``.

    ``critical_thread`` names the thread whose rows must sum to wall
    clock (the load loop, or the daemon's executor); self time of other
    threads is reported beside it as ``other_s``.  Spans of the
    ``bench`` layer (op boundaries, client calls) have no row: their self
    time is the unattributed remainder.
    """
    child_wall: Dict[int, float] = {}
    child_cpu: Dict[int, float] = {}
    for s in span_list:
        if s[PARENT]:
            child_wall[s[PARENT]] = child_wall.get(s[PARENT], 0.0) + _clip(s[T0], s[T1], window)
            if window[0] <= s[T0] < window[1]:
                child_cpu[s[PARENT]] = child_cpu.get(s[PARENT], 0.0) + (s[C1] - s[C0])
    rows: Dict[str, dict] = {}
    critical_total = 0.0
    for s in span_list:
        clipped = _clip(s[T0], s[T1], window)
        inside = window[0] <= s[T0] < window[1]
        if not clipped and not inside:
            continue
        self_wall = max(0.0, clipped - child_wall.get(s[ID], 0.0))
        name = row_of(s)
        on_critical = critical_thread is None or s[THREAD] == critical_thread
        if on_critical:
            critical_total += self_wall if name is not None else 0.0
        if name is None:
            continue
        row = rows.setdefault(name, {"calls": 0, "self_s": 0.0, "other_s": 0.0, "cpu_s": 0.0})
        if inside:
            row["calls"] += 1
            row["cpu_s"] += max(0.0, (s[C1] - s[C0]) - child_cpu.get(s[ID], 0.0))
        row["self_s" if on_critical else "other_s"] += self_wall
    wall = window[1] - window[0]
    return {
        "wall_s": wall,
        "rows": rows,
        "unattributed_s": wall - critical_total,
    }


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
