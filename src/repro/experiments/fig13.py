"""Figure 13: prototype bitstream PSDs after normalization.

The experimental counterpart of figure 9: the 3 kHz reference line, the
noise measurement band around 1 kHz and the normalized hot/cold floors
whose ratio carries the DUT noise figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.bist import BISTResult
from repro.dsp.spectrum import Spectrum
from repro.engine import MeasurementEngine
from repro.instruments.testbench import PrototypeTestbench, build_prototype_testbench
from repro.signals.random import GeneratorLike


@dataclass(frozen=True)
class Fig13Result:
    """Normalized prototype spectra and the measurement they imply."""

    noise_band_hz: Tuple[float, float]
    reference_frequency_hz: float
    floor_after_hot: float
    floor_after_cold: float
    line_power_hot_raw: float
    line_power_cold_raw: float
    bist: BISTResult
    expected_nf_db: float
    spectrum_hot_normalized: Spectrum
    spectrum_cold_normalized: Spectrum

    @property
    def floor_ratio_after(self) -> float:
        """Hot/cold normalized floor ratio (the measured Y)."""
        return self.floor_after_hot / self.floor_after_cold

    @property
    def nf_error_db(self) -> float:
        """Measured minus expected NF."""
        return self.bist.noise_figure_db - self.expected_nf_db


def run_fig13(
    bench: Optional[PrototypeTestbench] = None,
    opamp: str = "OP27",
    n_samples: int = 2**19,
    noise_band_hz: Tuple[float, float] = (500.0, 1500.0),
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> Fig13Result:
    """Regenerate the figure-13 normalized-PSD view of the prototype.

    Everything shown is in one ``engine.measure`` result, so a
    store-backed ``engine`` serves a rerun from its store.
    """
    if bench is None:
        bench = build_prototype_testbench(opamp, n_samples=n_samples)
    engine = engine if engine is not None else MeasurementEngine()
    estimator = bench.make_estimator(noise_band_hz=noise_band_hz)
    normalizer = estimator.normalizer

    result = engine.measure(bench, estimator, rng=seed)
    norm = result.normalization

    # Normalized spectra keep the grid and ENBW the zones are built on.
    zones_hot = normalizer.exclusion_zones(norm.hot, norm.line_frequency_hot_hz)
    zones_cold = normalizer.exclusion_zones(norm.cold, norm.line_frequency_cold_hz)
    return Fig13Result(
        noise_band_hz=noise_band_hz,
        reference_frequency_hz=bench.reference.frequency_hz,
        floor_after_hot=norm.hot.band_mean_density(
            *noise_band_hz, exclude=zones_hot
        ),
        floor_after_cold=norm.cold.band_mean_density(
            *noise_band_hz, exclude=zones_cold
        ),
        line_power_hot_raw=norm.line_power_hot,
        line_power_cold_raw=norm.line_power_cold,
        bist=result,
        expected_nf_db=bench.expected_nf_db(*noise_band_hz),
        spectrum_hot_normalized=norm.hot,
        spectrum_cold_normalized=norm.cold,
    )
