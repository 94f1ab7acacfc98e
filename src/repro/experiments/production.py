"""Extension experiment: production screening escape/overkill tradeoff.

Simulates a lot of devices whose true NF spreads around a specification
limit (process variation on the opamp's voltage noise), measures each
with the 1-bit BIST and screens with several guard-band settings.  The
tradeoff the guard band buys — fewer escapes for more retests/overkill —
is the production-economics argument behind BIST NF measurement.

The lot runs on one :class:`~repro.engine.MeasurementEngine` through
the planner (:func:`~repro.engine.scheduler.plan_measurements`):
devices are planned into compatible sub-batches, so a
*mixed-configuration* lot (per-device record lengths and/or FFT sizes)
still executes as one planned run with results bit-identical to
measuring every device on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.analog.opamp import OpAmpNoiseModel
from repro.core.production import (
    PopulationOutcome,
    ProductionNfScreen,
    Verdict,
    screen_population,
)
from repro.engine import MeasurementEngine, MeasurementTask
from repro.engine.scheduler import (
    RunReport,
    plan_measurements,
    plan_retest,
)
from repro.errors import ConfigurationError, ExecutionError, MeasurementError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.store.keys import SCHEMA_VERSION, digest, seed_fingerprint


def _build_device_bench(true_nf_db: float, n_samples: int):
    """Synthesize one device's testbench for a target true NF."""
    model = OpAmpNoiseModel.from_expected_nf(
        float(true_nf_db), 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
    )
    return build_prototype_testbench(model, n_samples=n_samples)


def _per_device(value, n_devices: int, name: str) -> List[int]:
    """Broadcast a scalar setting, or validate a per-device sequence."""
    if np.isscalar(value):
        return [int(value)] * n_devices
    values = [int(v) for v in value]
    if len(values) != n_devices:
        raise ConfigurationError(
            f"got {n_devices} devices but {len(values)} {name} values"
        )
    return values


def _draw_lot(
    limit_db: float,
    nf_spread_db: float,
    n_devices: int,
    seed: GeneratorLike,
):
    """The lot's true NFs and per-device generators (the screen's RNG
    discipline, shared with the retest path so both reproduce the same
    lot from one seed)."""
    gen = make_rng(seed)
    draw_rng, *device_rngs = spawn_rngs(gen, n_devices + 1)
    true_values = draw_rng.uniform(
        limit_db - nf_spread_db, limit_db + nf_spread_db, size=n_devices
    )
    return true_values, device_rngs


def _resolve_engine(engine, scheduler) -> MeasurementEngine:
    """The lot's engine: ``scheduler=`` is a second spelling of
    ``engine=`` (perfbench passes it); with neither, an in-process
    engine."""
    if engine is not None and scheduler is not None:
        raise ConfigurationError(
            "pass engine= or scheduler= (the same engine), not both"
        )
    engine = engine if engine is not None else scheduler
    return engine if engine is not None else MeasurementEngine()


def _lot_tasks(true_values, samples_by_device, nperseg_by_device, device_rngs):
    """One planned measurement task per device of the lot."""
    benches = [
        _build_device_bench(float(true_nf), device_samples)
        for true_nf, device_samples in zip(true_values, samples_by_device)
    ]
    estimators = [
        bench.make_estimator(nperseg=device_nperseg)
        for bench, device_nperseg in zip(benches, nperseg_by_device)
    ]
    return [
        MeasurementTask(bench, estimator, rng)
        for bench, estimator, rng in zip(benches, estimators, device_rngs)
    ]


def production_lot_key(
    limit_db: float,
    nf_spread_db: float,
    n_devices: int,
    samples_by_device,
    nperseg_by_device,
    measurement_sigma_db: float,
    seed: GeneratorLike,
    rng_mode: str,
) -> Optional[str]:
    """Content address of one production lot's screen outcome.

    Covers everything that determines the lot and its measurements
    (``None`` for unrepeatable seeds): the retest flow uses it to find
    a prior outcome in the store without re-running the screen.
    """
    seed_fp = seed_fingerprint(seed)
    if seed_fp is None:
        return None
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "kind": "production_lot",
            "limit_db": float(limit_db),
            "nf_spread_db": float(nf_spread_db),
            "n_devices": int(n_devices),
            "n_samples": [int(v) for v in samples_by_device],
            "nperseg": [int(v) for v in nperseg_by_device],
            "measurement_sigma_db": float(measurement_sigma_db),
            "seed": seed_fp,
            "rng_mode": str(rng_mode),
        }
    )


@dataclass(frozen=True)
class GuardbandRow:
    """Screening statistics for one guard-band setting."""

    guardband_sigmas: float
    guardband_db: float
    outcome: PopulationOutcome


@dataclass(frozen=True)
class ProductionResult:
    """The guard-band sweep over one simulated lot."""

    limit_db: float
    measurement_sigma_db: float
    n_devices: int
    true_nf_db: List[float]
    measured_nf_db: List[float]
    rows: List[GuardbandRow]
    n_plan_groups: int = 1
    #: Execution telemetry of the screen (attempts / retries / injected
    #: faults / per-group wall-clock); only populated by
    #: ``run_production(report=True)``.
    run_report: Optional[RunReport] = None

    def escapes_decrease_with_guardband(self) -> bool:
        """Escapes must not increase as the guard band widens."""
        escapes = [r.outcome.n_escapes for r in self.rows]
        return all(b <= a for a, b in zip(escapes, escapes[1:]))


def run_production(
    limit_db: float = 8.0,
    nf_spread_db: float = 1.5,
    n_devices: int = 24,
    guardband_sigmas: Sequence[float] = (0.0, 1.0, 2.0),
    n_samples: Union[int, Sequence[int]] = 2**17,
    measurement_sigma_db: float = 0.45,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
    nperseg: Union[int, Sequence[int]] = 8192,
    scheduler: Optional[MeasurementEngine] = None,
    resume: bool = False,
    report: bool = False,
    max_group_devices: Optional[int] = None,
    checkpoint=None,
) -> ProductionResult:
    """Simulate a lot and sweep the guard band.

    Each device's true NF is drawn uniformly from
    ``limit +/- nf_spread`` (a worst-case lot straddling the limit), its
    opamp is synthesized to that NF, and one BIST measurement is taken.
    Every lot runs through the planner.  ``n_samples`` and
    ``nperseg`` may be per-device sequences — a mixed-configuration
    lot — in which case compatible devices are grouped into
    sub-batches, each run as one multi-device engine batch, with
    per-device measurement only for singletons.  A homogeneous lot is
    one planned batch.  On the process backend each batch is split into
    one contiguous chunk of devices per pool worker, and every worker
    measures its chunk start to end (see :meth:`~repro.engine.
    MeasurementEngine.measure_devices`); the per-device generators make
    the result identical to measuring every device on its own.

    A store-backed engine persists every device's measurement plus
    the lot's outcome manifest (keyed by :func:`production_lot_key`) as
    the screen advances; ``resume=True`` replays an interrupted screen
    measuring only the devices the store is missing (results identical
    to a cold run).

    ``report=True`` runs the screen through the planner's telemetry
    path and attaches the :class:`~repro.engine.scheduler.RunReport`
    (attempts, retries, injected-fault counts, per-group wall-clock) to
    the result — the chaos harness's view of a screen.  A production
    outcome needs every device measured, so a screen that dead-letters
    a device past all recovery raises :class:`~repro.errors.
    ExecutionError` instead of screening a partial lot.

    ``max_group_devices`` splits the lot's planned sub-batches to at
    most that many devices each, and ``checkpoint`` (an
    ``on_group_end(group_index, n_groups)`` callable) fires after each
    sub-batch commits — together they are the measurement service's
    drain/preemption points: a checkpoint that raises aborts the rest
    of the screen with every finished sub-batch already persisted, and
    a later ``resume=True`` pass measures only what is missing.  Results
    stay bit-identical to an unchunked screen (each device carries its
    own generator).

    ``scheduler=`` is a second spelling of ``engine=``; passing both is
    a :class:`~repro.errors.ConfigurationError`.
    """
    if n_devices < 4:
        raise ConfigurationError(f"need >= 4 devices, got {n_devices}")
    if nf_spread_db <= 0:
        raise ConfigurationError(f"spread must be > 0, got {nf_spread_db}")
    eng = _resolve_engine(engine, scheduler)
    samples_by_device = _per_device(n_samples, n_devices, "n_samples")
    nperseg_by_device = _per_device(nperseg, n_devices, "nperseg")
    # Key the lot before drawing it: drawing spawns children off a
    # generator seed, and the key must address the pre-draw lineage
    # (the one the retest flow can recompute).  The manifest write
    # follows the engine's cache mode — a read-only ("frozen") store
    # is never written.
    lot_key = None
    if eng.cache_writes:
        lot_key = production_lot_key(
            limit_db, nf_spread_db, n_devices, samples_by_device,
            nperseg_by_device, measurement_sigma_db, seed, eng.rng_mode,
        )
    true_values, device_rngs = _draw_lot(
        limit_db, nf_spread_db, n_devices, seed
    )

    screen_report: Optional[RunReport] = None
    tasks = _lot_tasks(
        true_values, samples_by_device, nperseg_by_device, device_rngs
    )
    plan = plan_measurements(tasks, max_group_size=max_group_devices)
    if report:
        screen_report = plan.run_report(
            eng, resume=resume, on_group_end=checkpoint
        )
        results = screen_report.results
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ExecutionError(
                f"screen left {len(missing)} device(s) unmeasured "
                f"(indices {missing}); dead letters: "
                f"{[f.describe() for f in screen_report.dead]}"
            )
    else:
        results = plan.run(eng, resume=resume, on_group_end=checkpoint)
    measured_values = [r.noise_figure_db for r in results]

    if lot_key is not None:
        eng.store.put_outcome(
            lot_key,
            {
                "kind": "production_lot",
                "limit_db": float(limit_db),
                "measurement_sigma_db": float(measurement_sigma_db),
                "n_devices": int(n_devices),
                "true_nf_db": [float(v) for v in true_values],
                "measured_nf_db": [float(v) for v in measured_values],
            },
        )

    rows = []
    for sigmas in guardband_sigmas:
        screen = ProductionNfScreen(
            tasks[-1].estimator,
            limit_db=limit_db,
            measurement_sigma_db=measurement_sigma_db,
            guardband_sigmas=float(sigmas),
        )
        outcome = screen_population(screen, true_values, measured_values)
        rows.append(
            GuardbandRow(
                guardband_sigmas=float(sigmas),
                guardband_db=screen.guardband_db,
                outcome=outcome,
            )
        )
    return ProductionResult(
        limit_db=limit_db,
        measurement_sigma_db=measurement_sigma_db,
        n_devices=n_devices,
        true_nf_db=[float(v) for v in true_values],
        measured_nf_db=measured_values,
        rows=rows,
        n_plan_groups=plan.n_groups,
        run_report=screen_report,
    )


@dataclass(frozen=True)
class RetestResult:
    """The end-to-end screen -> persist -> replan-failures loop.

    ``merged_nf_db`` holds the lot's final measurements: the initial
    screen's value for devices whose verdict stood, the retest
    measurement for every failed / guard-band device.  ``rows`` sweeps
    the guard band over the merged lot, exactly as
    :class:`ProductionResult` does over the initial one.
    """

    limit_db: float
    measurement_sigma_db: float
    retest_guardband_sigmas: float
    n_devices: int
    true_nf_db: List[float]
    initial_nf_db: List[float]
    retest_indices: List[int]
    merged_nf_db: List[float]
    rows: List[GuardbandRow]
    initial_from_store: bool

    @property
    def n_retested(self) -> int:
        """Devices the replan actually re-measured."""
        return len(self.retest_indices)


def retest_rngs_for(seed: GeneratorLike, n_devices: int):
    """The deterministic retest generators of a lot.

    Children of the lot seed *beyond* the ones the initial screen
    consumed (draw + one per device), so retest measurements are
    independent of the first pass yet reproducible from the same seed —
    which is what lets a merged retest outcome be compared against a
    full re-screen using the same streams.
    """
    children = spawn_rngs(make_rng(seed), 1 + 2 * n_devices)
    return children[1 + n_devices :]


def run_production_retest(
    limit_db: float = 8.0,
    nf_spread_db: float = 1.5,
    n_devices: int = 24,
    guardband_sigmas: Sequence[float] = (0.0, 1.0, 2.0),
    retest_guardband_sigmas: float = 2.0,
    n_samples: Union[int, Sequence[int]] = 2**17,
    measurement_sigma_db: float = 0.45,
    seed: GeneratorLike = 2005,
    retest_seed: Optional[GeneratorLike] = None,
    nperseg: Union[int, Sequence[int]] = 8192,
    engine: Optional[MeasurementEngine] = None,
    scheduler: Optional[MeasurementEngine] = None,
    resume: bool = False,
) -> RetestResult:
    """Screen a lot, persist it, and re-measure only its failures.

    The production loop the store exists for:

    1. *Screen.*  The lot's prior outcome is looked up in the
       engine's store under :func:`production_lot_key`; on a miss
       the initial screen runs now (persisting per-device results and
       the outcome manifest as it goes).
    2. *Replan.*  Devices whose measurement lands above the
       guard-banded limit (``retest_guardband_sigmas``) — the FAIL and
       RETEST bins — are re-planned through
       :func:`~repro.engine.scheduler.plan_retest` with fresh,
       deterministic retest generators (:func:`retest_rngs_for`, or
       ``retest_seed``); every other device is *not acquired again*.
    3. *Merge.*  Retest measurements replace the initial ones; the
       guard-band sweep reruns over the merged lot.

    The merged outcome equals a full re-screen in which retested
    devices use their retest generators and every other device its
    original one — asserted in the integration tests — while measuring
    only the failed / guard-band fraction of the lot.

    ``seed`` must be a repeatable integer: the retest flow draws the
    lot twice (once to address the store, once inside the screen), so
    a stateful generator — whose lineage the first draw would consume
    — cannot reproduce the same lot and is rejected outright.

    ``scheduler=`` is a second spelling of ``engine=``, as for
    :func:`run_production`.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(
            "run_production_retest needs a repeatable integer seed "
            f"(got {type(seed).__name__}); generators are consumed by "
            "the first lot draw and cannot re-address the same lot"
        )
    eng = _resolve_engine(engine, scheduler)
    samples_by_device = _per_device(n_samples, n_devices, "n_samples")
    nperseg_by_device = _per_device(nperseg, n_devices, "nperseg")
    # Trusting a stored outcome is a cache *read*; a write-only engine
    # re-screens and only records.
    lot_key = (
        production_lot_key(
            limit_db, nf_spread_db, n_devices, samples_by_device,
            nperseg_by_device, measurement_sigma_db, seed, eng.rng_mode,
        )
        if eng.store is not None
        else None
    )
    prior = (
        eng.store.get_outcome(lot_key)
        if lot_key is not None and eng.cache_reads
        else None
    )

    true_values, device_rngs = _draw_lot(
        limit_db, nf_spread_db, n_devices, seed
    )
    if prior is not None:
        stored_true = [float(v) for v in prior["true_nf_db"]]
        if stored_true != [float(v) for v in true_values]:
            raise MeasurementError(
                "stored production outcome does not reproduce from this "
                "seed (store written by different parameters?)"
            )
        initial_values = [float(v) for v in prior["measured_nf_db"]]
    else:
        initial = run_production(
            limit_db=limit_db,
            nf_spread_db=nf_spread_db,
            n_devices=n_devices,
            guardband_sigmas=guardband_sigmas,
            n_samples=n_samples,
            measurement_sigma_db=measurement_sigma_db,
            seed=seed,
            nperseg=nperseg,
            engine=eng,
            resume=resume,
        )
        initial_values = list(initial.measured_nf_db)

    tasks = _lot_tasks(
        true_values, samples_by_device, nperseg_by_device, device_rngs
    )
    screen = ProductionNfScreen(
        tasks[-1].estimator,
        limit_db=limit_db,
        measurement_sigma_db=measurement_sigma_db,
        guardband_sigmas=float(retest_guardband_sigmas),
    )
    verdicts = [screen.classify(float(v)) for v in initial_values]
    retest_indices = [
        i
        for i, v in enumerate(verdicts)
        if v in (Verdict.FAIL, Verdict.RETEST)
    ]
    if retest_seed is not None:
        retest_rngs = spawn_rngs(make_rng(retest_seed), n_devices)
    else:
        retest_rngs = retest_rngs_for(seed, n_devices)
    retested = plan_retest(tasks, verdicts, retest_rngs=retest_rngs).run(eng)

    merged = [
        float(initial_values[i])
        if retested[i] is None
        else float(retested[i].noise_figure_db)
        for i in range(n_devices)
    ]
    rows = []
    for sigmas in guardband_sigmas:
        merged_screen = ProductionNfScreen(
            tasks[-1].estimator,
            limit_db=limit_db,
            measurement_sigma_db=measurement_sigma_db,
            guardband_sigmas=float(sigmas),
        )
        rows.append(
            GuardbandRow(
                guardband_sigmas=float(sigmas),
                guardband_db=merged_screen.guardband_db,
                outcome=screen_population(merged_screen, true_values, merged),
            )
        )
    return RetestResult(
        limit_db=limit_db,
        measurement_sigma_db=measurement_sigma_db,
        retest_guardband_sigmas=float(retest_guardband_sigmas),
        n_devices=n_devices,
        true_nf_db=[float(v) for v in true_values],
        initial_nf_db=[float(v) for v in initial_values],
        retest_indices=retest_indices,
        merged_nf_db=merged,
        rows=rows,
        initial_from_store=prior is not None,
    )
