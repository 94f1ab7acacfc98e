"""Ablation: Van Vleck arcsine correction vs the paper's linear use.

The paper relies on the arcsine law being "approximately linear for small
values of the input argument" and never inverts it.  This ablation runs
the Y estimation both ways — Welch PSD of the raw bitstream (linear
assumption) and Blackman-Tukey PSD of the Van Vleck-inverted
autocorrelation — across reference amplitudes, showing where the linear
shortcut starts to cost accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.digitizer.arcsine import corrected_psd
from repro.engine import MeasurementEngine
from repro.errors import MeasurementError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, spawn_rngs

DEFAULT_RATIOS = (0.15, 0.30, 0.50, 0.70)


@dataclass(frozen=True)
class VanVleckPoint:
    """Linear vs corrected estimation at one reference amplitude."""

    reference_ratio: float
    error_linear_pct: Optional[float]
    error_corrected_pct: Optional[float]


@dataclass(frozen=True)
class VanVleckResult:
    """The ablation sweep."""

    points: List[VanVleckPoint]
    true_power_ratio: float


def run_vanvleck(
    ratios=DEFAULT_RATIOS,
    config: Optional[MatlabSimConfig] = None,
    max_lag: int = 2048,
    seed: GeneratorLike = 2005,
) -> VanVleckResult:
    """Compare linear and Van Vleck-corrected Y estimates."""
    base = config if config is not None else MatlabSimConfig(
        n_samples=250_000, nperseg=5000
    )
    engine = MeasurementEngine()
    ratios = tuple(ratios)
    rngs = spawn_rngs(seed, len(ratios))
    true_ratio = MatlabSimulation(base).true_power_ratio

    def error_of(y: float) -> float:
        return 100.0 * (y - true_ratio) / true_ratio

    points = []
    for ratio, rng in zip(ratios, rngs):
        sim = MatlabSimulation(replace(base, reference_ratio=ratio))
        estimator = sim.make_estimator()
        records, rate = engine.acquire(sim, ["hot", "cold"], spawn_rngs(rng, 2))
        spectra = engine.spectra_of(records, rate, estimator).spectra()
        try:
            linear = estimator.estimate_from_spectra(*spectra)
            err_linear = error_of(linear.y)
        except MeasurementError:
            err_linear = None
        try:
            spec_hot = corrected_psd(records[0].to_waveform(), max_lag)
            spec_cold = corrected_psd(records[1].to_waveform(), max_lag)
            corrected = estimator.estimate_from_spectra(spec_hot, spec_cold)
            err_corrected = error_of(corrected.y)
        except MeasurementError:
            err_corrected = None
        points.append(
            VanVleckPoint(
                reference_ratio=ratio,
                error_linear_pct=err_linear,
                error_corrected_pct=err_corrected,
            )
        )
    return VanVleckResult(points=points, true_power_ratio=true_ratio)
