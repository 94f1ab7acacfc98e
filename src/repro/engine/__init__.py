"""Batched measurement engine — the high-throughput orchestration layer.

The paper's workload is batch-shaped: 1e6-sample records, FFT size 1e4,
repeated across hot/cold states, devices, sweeps and Monte-Carlo
repeats.  This package stacks those independent records into 2-D arrays
and drives the whole hot path — noise rendering, amplifier processing,
1-bit digitizing, Welch PSDs — through the vectorized batch kernels of
:mod:`repro.signals`, :mod:`repro.analog`, :mod:`repro.digitizer` and
:mod:`repro.dsp.psd`, while preserving bit-exact per-record
reproducibility (each record draws from its own ``spawn_rngs`` child).

``MeasurementEngine.run_batch`` replaces serial repeat loops,
``MeasurementEngine.measure`` a single two-state acquisition, and
``MeasurementEngine.map_sweep`` fans independent sweep tasks out either
in-process or over a persistent worker pool with per-task child seeds.

:mod:`repro.engine.scheduler` sits on top: :class:`WorkerPool` keeps
one process pool alive across a whole session, and is the only way
work reaches another process — whole measurements (chunks of
``run_batch`` repeats or ``measure_devices`` devices) and sweep tasks,
never parts of one.  :class:`MeasurementScheduler` plans arbitrary
mixed-configuration screens into compatible sub-batches
(:func:`plan_measurements`) with results bit-identical to per-device
measurement.
"""

from repro.buffers import ArrayPool, default_pool
from repro.engine.engine import (
    AnalogBatchAcquirer,
    BatchAcquirer,
    Engine,
    MeasurementEngine,
)
from repro.engine.scheduler import (
    GroupReport,
    MapOutcome,
    MeasurementPlan,
    MeasurementScheduler,
    MeasurementTask,
    PlanGroup,
    RetryPolicy,
    RunReport,
    TaskFailure,
    WorkerPool,
    as_scheduler,
    plan_measurements,
    plan_retest,
)
from repro.store import ResultStore

__all__ = [
    "AnalogBatchAcquirer",
    "ArrayPool",
    "BatchAcquirer",
    "Engine",
    "GroupReport",
    "MapOutcome",
    "MeasurementEngine",
    "MeasurementPlan",
    "MeasurementScheduler",
    "MeasurementTask",
    "PlanGroup",
    "ResultStore",
    "RetryPolicy",
    "RunReport",
    "TaskFailure",
    "WorkerPool",
    "as_scheduler",
    "default_pool",
    "plan_measurements",
    "plan_retest",
]
