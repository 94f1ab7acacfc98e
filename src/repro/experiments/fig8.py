"""Figure 8: PSD of the digitizer bitstream, hot vs cold, before
normalization.

The observable the paper points at: "the noise levels remain similar,
while amplitude levels of the reference square wave are larger" (for the
cold state).  We reproduce line powers and mean floor densities of both
raw bitstream spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dsp.spectrum import Spectrum
from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, spawn_rngs


@dataclass(frozen=True)
class Fig8Result:
    """Raw (un-normalized) bitstream spectrum levels."""

    line_power_hot: float
    line_power_cold: float
    floor_density_hot: float
    floor_density_cold: float
    spectrum_hot: Spectrum
    spectrum_cold: Spectrum

    @property
    def line_ratio_cold_over_hot(self) -> float:
        """Cold line is larger (smaller noise -> bigger limiter gain)."""
        return self.line_power_cold / self.line_power_hot

    @property
    def floor_ratio_hot_over_cold(self) -> float:
        """Close to 1: the +/-1 stream hides the absolute noise level."""
        return self.floor_density_hot / self.floor_density_cold


def run_fig8(
    config: Optional[MatlabSimConfig] = None,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> Fig8Result:
    """Regenerate the figure-8 spectrum levels."""
    sim = MatlabSimulation(config)
    engine = engine if engine is not None else MeasurementEngine()
    estimator = sim.make_estimator()

    records, rate = engine.acquire(sim, ["hot", "cold"], spawn_rngs(seed, 2))
    spec_hot, spec_cold = engine.spectra_of(records, rate, estimator).spectra()

    normalizer = estimator.normalizer
    f_hot, line_hot = normalizer.line_power(spec_hot)
    f_cold, line_cold = normalizer.line_power(spec_cold)
    f_low, f_high = sim.config.noise_band_hz
    floor_hot = spec_hot.band_mean_density(
        f_low, f_high, exclude=normalizer.exclusion_zones(spec_hot, f_hot)
    )
    floor_cold = spec_cold.band_mean_density(
        f_low, f_high, exclude=normalizer.exclusion_zones(spec_cold, f_cold)
    )
    return Fig8Result(
        line_power_hot=line_hot,
        line_power_cold=line_cold,
        floor_density_hot=floor_hot,
        floor_density_cold=floor_cold,
        spectrum_hot=spec_hot,
        spectrum_cold=spec_cold,
    )
