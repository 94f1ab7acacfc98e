"""Ablation: estimation accuracy vs acquisition record length.

The paper captures 1e6 samples per state.  This ablation quantifies why:
the reference-line power estimate dominates the Y-factor noise, and its
variance falls with the number of Welch segments.  For each record
length, several independent measurements are run and the NF error mean
and standard deviation are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analog.opamp import OpAmpNoiseModel
from repro.engine import MeasurementEngine, MeasurementTask
from repro.engine.scheduler import plan_measurements
from repro.errors import ConfigurationError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs

DEFAULT_LENGTHS = (2**15, 2**16, 2**17, 2**18, 2**19)


@dataclass(frozen=True)
class RecordLengthPoint:
    """Accuracy statistics at one record length."""

    n_samples: int
    n_trials: int
    nf_mean_db: float
    nf_std_db: float
    mean_error_db: float


@dataclass(frozen=True)
class RecordLengthResult:
    """The full ablation sweep."""

    points: List[RecordLengthPoint]
    expected_nf_db: float

    def std_is_decreasing(self) -> bool:
        """Whether the NF scatter shrinks with record length (allowing
        one inversion from finite trial counts)."""
        stds = [p.nf_std_db for p in self.points]
        inversions = sum(1 for a, b in zip(stds, stds[1:]) if b > a)
        return inversions <= 1


def run_record_length(
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    n_trials: int = 6,
    target_nf_db: float = 6.0,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
    resume: bool = False,
) -> RecordLengthResult:
    """Sweep the record length; repeat each point ``n_trials`` times.

    The whole ablation — every length, every trial — is one planned
    run: the planner groups the trials of each record length
    into their own compatible sub-batch (lengths differ, so they cannot
    share one), with the same per-trial generators as the serial loop,
    so the statistics are unchanged.

    On a store-backed engine every trial persists as its sub-batch
    completes, and ``resume=True`` replays an interrupted sweep
    measuring only the missing trials (statistics identical to a cold
    run — the store round-trip is bit-exact).
    """
    lengths = [int(n) for n in lengths]
    if not lengths:
        raise ConfigurationError("need at least one record length")
    if n_trials < 2:
        raise ConfigurationError(f"n_trials must be >= 2, got {n_trials}")
    engine = engine if engine is not None else MeasurementEngine()

    model = OpAmpNoiseModel.from_expected_nf(
        target_nf_db, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
        name=f"ablation_nf{target_nf_db:g}",
    )
    gen = make_rng(seed)
    length_rngs = spawn_rngs(gen, len(lengths))

    tasks = []
    expected = None
    for n_samples, rng in zip(lengths, length_rngs):
        bench = build_prototype_testbench(model, n_samples=n_samples)
        if expected is None:
            expected = bench.expected_nf_db(500.0, 1500.0)
        estimator = bench.make_estimator()
        # The same trial children run_batch would spawn for this length.
        tasks += [
            MeasurementTask(bench, estimator, child)
            for child in spawn_rngs(make_rng(rng), n_trials)
        ]
    results = plan_measurements(tasks).run(engine, resume=resume)

    points = []
    for k, n_samples in enumerate(lengths):
        arr = np.asarray(
            [
                r.noise_figure_db
                for r in results[k * n_trials : (k + 1) * n_trials]
            ]
        )
        points.append(
            RecordLengthPoint(
                n_samples=n_samples,
                n_trials=n_trials,
                nf_mean_db=float(np.mean(arr)),
                nf_std_db=float(np.std(arr, ddof=1)),
                mean_error_db=float(np.mean(arr) - expected),
            )
        )
    return RecordLengthResult(points=points, expected_nf_db=expected)
