"""Ablation: fixed-point SoC DSP word lengths vs the float pipeline.

Runs the same pair of captured bitstreams through the floating-point
Welch estimator and through fixed-point variants at several word-length
settings, reporting the NF deviation each one introduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analog.opamp import OpAmpNoiseModel
from repro.engine import MeasurementEngine
from repro.errors import ConfigurationError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, spawn_rngs
from repro.soc.fixedpoint import FixedPointSpec, fixed_point_welch

DEFAULT_SPECS = (
    (16, 32),
    (12, 32),
    (8, 24),
    (16, 16),
)


@dataclass(frozen=True)
class FixedPointPoint:
    """NF deviation for one word-length configuration."""

    window_bits: int
    accumulator_bits: int
    nf_db: float
    deviation_db: float


@dataclass(frozen=True)
class FixedPointResult:
    """Float reference plus all fixed-point variants."""

    float_nf_db: float
    expected_nf_db: float
    points: List[FixedPointPoint]

    def worst_deviation_db(self) -> float:
        """Largest |NF deviation| across configurations."""
        return max(abs(p.deviation_db) for p in self.points)


def run_fixedpoint(
    specs: Sequence[Tuple[int, int]] = DEFAULT_SPECS,
    target_nf_db: float = 6.0,
    n_samples: int = 2**18,
    seed: GeneratorLike = 2005,
) -> FixedPointResult:
    """Compare fixed-point DSP variants on one captured bitstream pair."""
    specs = list(specs)
    if not specs:
        raise ConfigurationError("need at least one word-length spec")
    engine = MeasurementEngine()

    model = OpAmpNoiseModel.from_expected_nf(
        target_nf_db, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
        name=f"fixedpoint_nf{target_nf_db:g}",
    )
    bench = build_prototype_testbench(model, n_samples=n_samples)
    estimator = bench.make_estimator()
    records, rate = engine.acquire(bench, ["hot", "cold"], spawn_rngs(seed, 2))
    float_result = estimator.estimate_from_spectra(
        *engine.spectra_of(records, rate, estimator).spectra()
    )
    bits_hot, bits_cold = (records[i].to_waveform() for i in range(2))

    points = []
    for window_bits, acc_bits in specs:
        spec = FixedPointSpec(window_bits=window_bits, accumulator_bits=acc_bits)
        spec_hot = fixed_point_welch(bits_hot, estimator.config.nperseg, spec)
        spec_cold = fixed_point_welch(bits_cold, estimator.config.nperseg, spec)
        result = estimator.estimate_from_spectra(spec_hot, spec_cold)
        points.append(
            FixedPointPoint(
                window_bits=window_bits,
                accumulator_bits=acc_bits,
                nf_db=result.noise_figure_db,
                deviation_db=result.noise_figure_db - float_result.noise_figure_db,
            )
        )
    return FixedPointResult(
        float_nf_db=float_result.noise_figure_db,
        expected_nf_db=bench.expected_nf_db(500.0, 1500.0),
        points=points,
    )
