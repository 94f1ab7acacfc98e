"""Batched measurement engine — the high-throughput orchestration layer.

The paper's workload is batch-shaped: 1e6-sample records, FFT size 1e4,
repeated across hot/cold states, devices, sweeps and Monte-Carlo
repeats.  This package stacks those independent records into 2-D arrays
and drives the whole hot path — noise rendering, amplifier processing,
1-bit digitizing, Welch PSDs — through the vectorized batch kernels of
:mod:`repro.signals`, :mod:`repro.analog`, :mod:`repro.digitizer` and
:mod:`repro.dsp.psd`, while preserving bit-exact per-record
reproducibility (each record draws from its own ``spawn_rngs`` child).

:class:`MeasurementEngine` is the one measurement object: it owns its
worker pool and its result store.  ``run_batch`` replaces serial
repeat loops, ``measure`` a single two-state acquisition, and
``map_sweep`` fans independent sweep tasks out either in-process
(``backend="serial"``) or over the engine's persistent worker pool
(``backend="process"``) with per-task child seeds.

:mod:`repro.engine.scheduler` holds the pool and the planner:
:class:`WorkerPool` is the only way work reaches another process —
whole measurements (chunks of ``run_batch`` repeats or
``measure_devices`` devices) and sweep tasks, never parts of one — and
:func:`plan_measurements` groups arbitrary mixed-configuration screens
into compatible sub-batches, run as
``plan_measurements(tasks).run(engine)`` with results bit-identical to
per-device measurement.
"""

from repro.buffers import ArrayPool, default_pool
from repro.engine.engine import (
    BatchAcquirer,
    MeasurementEngine,
)
from repro.engine.scheduler import (
    GroupReport,
    MapOutcome,
    MeasurementPlan,
    MeasurementTask,
    PlanGroup,
    RetryPolicy,
    RunReport,
    TaskFailure,
    WorkerPool,
    plan_measurements,
    plan_retest,
)
from repro.store import ResultStore

__all__ = [
    "ArrayPool",
    "BatchAcquirer",
    "GroupReport",
    "MapOutcome",
    "MeasurementEngine",
    "MeasurementPlan",
    "MeasurementTask",
    "PlanGroup",
    "ResultStore",
    "RetryPolicy",
    "RunReport",
    "TaskFailure",
    "WorkerPool",
    "default_pool",
    "plan_measurements",
    "plan_retest",
]
