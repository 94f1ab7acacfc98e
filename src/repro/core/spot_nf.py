"""Spot noise figure vs frequency from one pair of 1-bit acquisitions.

A natural extension of the paper's method: the normalized spectra carry
the *whole* noise spectrum, so one hot/cold acquisition pair yields the
noise figure in any number of sub-bands — NF(f) — at no extra analog or
acquisition cost.  With a 1/f-dominated DUT the low bands read higher NF,
which the analytical model predicts independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.bist import OneBitNoiseFigureBIST
from repro.core.definitions import YFactorResult
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.waveform import Waveform


@dataclass(frozen=True)
class SpotNfPoint:
    """Noise figure measured in one sub-band."""

    f_low_hz: float
    f_high_hz: float
    y: float
    noise_figure_db: float

    @property
    def f_center_hz(self) -> float:
        """Geometric band center."""
        return float(np.sqrt(self.f_low_hz * self.f_high_hz))


@dataclass(frozen=True)
class SpotNfResult:
    """NF(f) across all requested sub-bands."""

    points: List[SpotNfPoint]

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.array([p.f_center_hz for p in self.points])

    @property
    def nf_db(self) -> np.ndarray:
        return np.array([p.noise_figure_db for p in self.points])


class SpotNoiseFigureSweep:
    """Per-band NF from a single hot/cold bitstream pair.

    Parameters
    ----------
    estimator:
        A configured :class:`OneBitNoiseFigureBIST`; its reference
        normalization and temperatures are reused, only the noise band is
        swept.
    bands_hz:
        Sub-bands ``(f_low, f_high)``; each must avoid the reference
        frequency's exclusion zones enough to retain bins.
    """

    def __init__(
        self,
        estimator: OneBitNoiseFigureBIST,
        bands_hz: Sequence[Tuple[float, float]],
    ):
        if not isinstance(estimator, OneBitNoiseFigureBIST):
            raise ConfigurationError(
                f"estimator must be OneBitNoiseFigureBIST, got "
                f"{type(estimator).__name__}"
            )
        bands = [(float(a), float(b)) for a, b in bands_hz]
        if not bands:
            raise ConfigurationError("need at least one band")
        nyquist = estimator.config.sample_rate_hz / 2.0
        for f_low, f_high in bands:
            if not 0 < f_low < f_high <= nyquist:
                raise ConfigurationError(
                    f"band ({f_low}, {f_high}) must satisfy "
                    f"0 < f_low < f_high <= {nyquist}"
                )
        self.estimator = estimator
        self.bands_hz = bands

    def estimate(self, bits_hot: Waveform, bits_cold: Waveform) -> SpotNfResult:
        """Run the sweep: one PSD + normalization, many band powers."""
        est = self.estimator
        spec_hot = est.spectrum_of(bits_hot)
        spec_cold = est.spectrum_of(bits_cold)
        norm = est.normalizer.normalize_pair(spec_hot, spec_cold)

        points = []
        for f_low, f_high in self.bands_hz:
            p_hot, p_cold = est.normalizer.normalized_band_powers(
                norm, f_low, f_high
            )
            if p_cold <= 0:
                raise MeasurementError(
                    f"band ({f_low}, {f_high}) has zero cold power"
                )
            y = p_hot / p_cold
            result = YFactorResult.from_y(
                y, est.t_hot_k, est.t_cold_k, est.t0_k
            )
            points.append(
                SpotNfPoint(
                    f_low_hz=f_low,
                    f_high_hz=f_high,
                    y=y,
                    noise_figure_db=result.noise_figure_db,
                )
            )
        return SpotNfResult(points=points)


def octave_bands(
    f_start_hz: float, n_bands: int, nyquist_hz: float
) -> List[Tuple[float, float]]:
    """Build ``n_bands`` octave-spaced sub-bands starting at ``f_start``."""
    if f_start_hz <= 0:
        raise ConfigurationError(f"f_start must be > 0, got {f_start_hz}")
    if n_bands < 1:
        raise ConfigurationError(f"n_bands must be >= 1, got {n_bands}")
    bands = []
    f_low = float(f_start_hz)
    for _ in range(n_bands):
        f_high = 2.0 * f_low
        if f_high > nyquist_hz:
            raise ConfigurationError(
                f"octave band ({f_low}, {f_high}) exceeds Nyquist "
                f"{nyquist_hz} Hz; reduce n_bands"
            )
        bands.append((f_low, f_high))
        f_low = f_high
    return bands
