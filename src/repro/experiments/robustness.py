"""Ablation: BIST robustness against comparator non-idealities.

The paper's BIST cell is a bare comparator; real silicon has offset,
hysteresis and sampling jitter.  This ablation sweeps each non-ideality
(expressed relative to the cold output noise RMS, or in sample periods
for jitter) and reports the NF shift versus an ideal-comparator run on
the same noise realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analog.opamp import OpAmpNoiseModel
from repro.digitizer.comparator import Comparator
from repro.digitizer.digitizer import OneBitDigitizer
from repro.digitizer.sampler import SampledLatch
from repro.engine import MeasurementEngine, MeasurementTask
from repro.engine.scheduler import plan_measurements
from repro.errors import ConfigurationError, MeasurementError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng


@dataclass(frozen=True)
class RobustnessPoint:
    """NF shift for one non-ideality setting."""

    kind: str
    relative_level: float
    nf_db: Optional[float]
    shift_db: Optional[float]


@dataclass(frozen=True)
class RobustnessResult:
    """All sweeps plus the ideal-comparator baseline."""

    baseline_nf_db: float
    expected_nf_db: float
    points: List[RobustnessPoint]

    def worst_shift_db(self, kind: str) -> float:
        """Largest |NF shift| among successful points of one sweep."""
        shifts = [
            abs(p.shift_db)
            for p in self.points
            if p.kind == kind and p.shift_db is not None
        ]
        if not shifts:
            raise MeasurementError(f"no successful points for {kind!r}")
        return max(shifts)


def _digitizer_for(kind: str, level: float, cold_rms: float) -> OneBitDigitizer:
    if kind == "offset":
        return OneBitDigitizer(comparator=Comparator(offset_v=level * cold_rms))
    if kind == "input_noise":
        return OneBitDigitizer(
            comparator=Comparator(input_noise_rms=level * cold_rms)
        )
    if kind == "hysteresis":
        return OneBitDigitizer(
            comparator=Comparator(hysteresis_v=level * cold_rms)
        )
    if kind == "jitter":
        return OneBitDigitizer(sampler=SampledLatch(1, jitter_rms_samples=level))
    raise ConfigurationError(f"unknown non-ideality kind {kind!r}")


def run_robustness(
    offset_levels: Sequence[float] = (0.05, 0.10, 0.20),
    noise_levels: Sequence[float] = (0.05, 0.10, 0.20),
    hysteresis_levels: Sequence[float] = (0.05, 0.10),
    jitter_levels: Sequence[float] = (0.5, 1.0),
    target_nf_db: float = 6.0,
    n_samples: int = 2**18,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
    resume: bool = False,
) -> RobustnessResult:
    """Sweep comparator non-idealities; share the seed across settings so
    shifts isolate the systematic effect.

    Every setting's bench differs only in its digitizer, so all of them
    (baseline included) share one analysis configuration and the
    whole ablation runs as a single planned multi-device batch — each device digitizing with its own non-ideal comparator,
    all records sharing one batched Welch pass.  The shared integer
    seed reproduces the identical noise realization per setting, as the
    serial loop did.
    """
    model = OpAmpNoiseModel.from_expected_nf(
        target_nf_db, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
        name=f"robustness_nf{target_nf_db:g}",
    )
    engine = engine if engine is not None else MeasurementEngine()
    shared_seed = int(make_rng(seed).integers(2**63))

    def bench_with(digitizer: Optional[OneBitDigitizer]):
        kwargs = {} if digitizer is None else {"digitizer": digitizer}
        return build_prototype_testbench(model, n_samples=n_samples, **kwargs)

    baseline_bench = build_prototype_testbench(model, n_samples=n_samples)
    expected = baseline_bench.expected_nf_db(500.0, 1500.0)
    cold_rms = baseline_bench.predicted_output_rms("cold")

    sweeps = (
        ("offset", offset_levels),
        ("input_noise", noise_levels),
        ("hysteresis", hysteresis_levels),
        ("jitter", jitter_levels),
    )
    settings = [(kind, float(level)) for kind, levels in sweeps
                for level in levels]
    benches = [bench_with(None)] + [
        bench_with(_digitizer_for(kind, level, cold_rms))
        for kind, level in settings
    ]
    results = plan_measurements(
        [
            MeasurementTask(bench, bench.make_estimator(), shared_seed)
            for bench in benches
        ]
    ).run(engine, allow_failures=True, resume=resume)
    if results[0] is None:
        raise MeasurementError("baseline measurement lost its reference line")
    baseline = results[0].noise_figure_db

    points = []
    for (kind, level), result in zip(settings, results[1:]):
        if result is None:
            points.append(RobustnessPoint(kind, level, None, None))
            continue
        nf = result.noise_figure_db
        points.append(RobustnessPoint(kind, level, nf, nf - baseline))
    return RobustnessResult(
        baseline_nf_db=baseline, expected_nf_db=expected, points=points
    )
