"""Figure 9: PSD floors before/after normalization (zoom at 60 Hz).

Before normalization the two bitstream floors almost coincide (the paper:
"noise levels were very close before the normalization procedure"); after
scaling each spectrum to unit reference-line power the floors separate by
the true power ratio.  We quantify both states' floor densities in a zoom
band around the reference and the implied ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, spawn_rngs


@dataclass(frozen=True)
class Fig9Result:
    """Floor densities around the reference, before and after."""

    zoom_band_hz: Tuple[float, float]
    floor_before_hot: float
    floor_before_cold: float
    floor_after_hot: float
    floor_after_cold: float
    true_power_ratio: float

    @property
    def ratio_before(self) -> float:
        """Hot/cold floor ratio before normalization (~1)."""
        return self.floor_before_hot / self.floor_before_cold

    @property
    def ratio_after(self) -> float:
        """Hot/cold floor ratio after normalization (~true ratio)."""
        return self.floor_after_hot / self.floor_after_cold


def run_fig9(
    config: Optional[MatlabSimConfig] = None,
    zoom_halfwidth_hz: float = 40.0,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> Fig9Result:
    """Regenerate the figure-9 zoom comparison."""
    sim = MatlabSimulation(config)
    engine = engine if engine is not None else MeasurementEngine()
    estimator = sim.make_estimator()
    normalizer = estimator.normalizer

    records, rate = engine.acquire(sim, ["hot", "cold"], spawn_rngs(seed, 2))
    spec_hot, spec_cold = engine.spectra_of(records, rate, estimator).spectra()
    norm = normalizer.normalize_pair(spec_hot, spec_cold)

    f_ref = sim.config.reference_frequency_hz
    zoom = (max(spec_hot.df, f_ref - zoom_halfwidth_hz), f_ref + zoom_halfwidth_hz)
    zones_hot = normalizer.exclusion_zones(spec_hot, norm.line_frequency_hot_hz)
    zones_cold = normalizer.exclusion_zones(spec_cold, norm.line_frequency_cold_hz)

    return Fig9Result(
        zoom_band_hz=zoom,
        floor_before_hot=spec_hot.band_mean_density(*zoom, exclude=zones_hot),
        floor_before_cold=spec_cold.band_mean_density(*zoom, exclude=zones_cold),
        floor_after_hot=norm.hot.band_mean_density(*zoom, exclude=zones_hot),
        floor_after_cold=norm.cold.band_mean_density(*zoom, exclude=zones_cold),
        true_power_ratio=sim.true_power_ratio,
    )
