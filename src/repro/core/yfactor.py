"""Full-ADC Y-factor estimation (paper section 4.2, figure 4).

This is the reference estimator the 1-bit BIST is compared against: with
full access to the analog output record (an ideal ADC), the Y factor is
simply the ratio of measured powers; gain drift cancels (eq 11).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.constants import T0_KELVIN
from repro.core.definitions import YFactorResult
from repro.dsp.power import mean_square
from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.waveform import Waveform


class YFactorMethod:
    """Y-factor estimator with full (multi-bit) output access.

    Parameters
    ----------
    t_hot_k / t_cold_k:
        Calibrated source temperatures of the two states.
    t0_k:
        Reference temperature for the noise-factor definition.
    """

    def __init__(
        self,
        t_hot_k: float,
        t_cold_k: float = T0_KELVIN,
        t0_k: float = T0_KELVIN,
    ):
        if t_hot_k <= t_cold_k:
            raise ConfigurationError(
                f"hot temperature ({t_hot_k} K) must exceed cold ({t_cold_k} K)"
            )
        if t0_k <= 0:
            raise ConfigurationError(f"T0 must be > 0 K, got {t0_k}")
        self.t_hot_k = float(t_hot_k)
        self.t_cold_k = float(t_cold_k)
        self.t0_k = float(t0_k)

    # ------------------------------------------------------------------
    def from_powers(self, p_hot: float, p_cold: float) -> YFactorResult:
        """Estimate from two measured output powers (eq 5 + eq 8)."""
        if p_hot <= 0 or p_cold <= 0:
            raise MeasurementError(
                f"powers must be positive, got hot={p_hot}, cold={p_cold}"
            )
        y = p_hot / p_cold
        if y <= 1.0:
            raise MeasurementError(
                f"hot power must exceed cold power, got Y={y:.4f}"
            )
        return YFactorResult.from_y(
            y, self.t_hot_k, self.t_cold_k, self.t0_k, p_hot=p_hot, p_cold=p_cold
        )

    def from_records(
        self,
        hot_record: Union[Waveform, np.ndarray],
        cold_record: Union[Waveform, np.ndarray],
    ) -> YFactorResult:
        """Estimate from time-domain output records (mean-square powers)."""
        return self.from_powers(mean_square(hot_record), mean_square(cold_record))

    def from_spectra(
        self,
        hot_spectrum: Spectrum,
        cold_spectrum: Spectrum,
        f_low_hz: float,
        f_high_hz: float,
        exclude: Sequence[Tuple[float, float]] = (),
    ) -> YFactorResult:
        """Estimate from PSDs integrated over a band (Table 2 "PSD ratio")."""
        p_hot = hot_spectrum.band_power(f_low_hz, f_high_hz, exclude=exclude)
        p_cold = cold_spectrum.band_power(f_low_hz, f_high_hz, exclude=exclude)
        return self.from_powers(p_hot, p_cold)
