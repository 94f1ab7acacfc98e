"""Noise-figure definitions and Y-factor equations (paper eqs 1-9).

Symbols follow the paper: noise factor ``F`` (linear), noise figure
``NF = 10*log10(F)`` (eq 3), Y factor ``Y = Nh/Nc`` (eq 5), reference
temperature ``T0 = 290 K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constants import T0_KELVIN, db_to_linear, linear_to_db
from repro.dsp.power import mean_square
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.waveform import Waveform


def f_to_nf(noise_factor: float) -> float:
    """Noise figure in dB from a linear noise factor (eq 3)."""
    if noise_factor < 1.0:
        raise ConfigurationError(
            f"noise factor must be >= 1 (a passive source adds no negative "
            f"noise), got {noise_factor}"
        )
    return linear_to_db(noise_factor)


def nf_to_f(noise_figure_db: float) -> float:
    """Linear noise factor from a noise figure in dB."""
    if noise_figure_db < 0.0:
        raise ConfigurationError(
            f"noise figure must be >= 0 dB, got {noise_figure_db}"
        )
    return db_to_linear(noise_figure_db)


def noise_temperature_from_factor(
    noise_factor: float, t0_k: float = T0_KELVIN
) -> float:
    """Equivalent input noise temperature ``Te = (F-1)*T0``."""
    if noise_factor < 1.0:
        raise ConfigurationError(f"noise factor must be >= 1, got {noise_factor}")
    return (noise_factor - 1.0) * t0_k


def enr_db(t_hot_k: float, t0_k: float = T0_KELVIN) -> float:
    """Excess noise ratio of a hot source, ``10*log10((Th-T0)/T0)``."""
    if t_hot_k <= t0_k:
        raise ConfigurationError(
            f"hot temperature {t_hot_k} K must exceed T0 {t0_k} K"
        )
    return linear_to_db((t_hot_k - t0_k) / t0_k)


def snr_db_from_waveforms(signal: Waveform, noise: Waveform) -> float:
    """SNR (eq 1) from separate signal and noise records."""
    p_noise = mean_square(noise)
    if p_noise <= 0:
        raise MeasurementError("noise record has zero power")
    p_signal = mean_square(signal)
    if p_signal <= 0:
        raise MeasurementError("signal record has zero power")
    return linear_to_db(p_signal / p_noise)


# ----------------------------------------------------------------------
# Y-factor equations
# ----------------------------------------------------------------------
def y_factor_expected(
    noise_factor: float,
    t_hot_k: float,
    t_cold_k: float = T0_KELVIN,
    t0_k: float = T0_KELVIN,
) -> float:
    """Forward model: the Y a DUT of noise factor F produces (from eqs 6-7).

    ``Y = (Th + Te) / (Tc + Te)`` with ``Te = (F-1)*T0``.
    """
    te = noise_temperature_from_factor(noise_factor, t0_k)
    if t_cold_k + te <= 0:
        raise ConfigurationError("cold-state noise power must be positive")
    return (t_hot_k + te) / (t_cold_k + te)


def noise_factor_from_y(
    y: float,
    t_hot_k: float,
    t_cold_k: float = T0_KELVIN,
    t0_k: float = T0_KELVIN,
) -> float:
    """Invert the Y-factor equation (paper eq 8).

    ``F = [(Th/T0 - 1) - Y*(Tc/T0 - 1)] / (Y - 1)``.
    """
    if y <= 1.0:
        raise MeasurementError(
            f"Y factor must exceed 1 (hot power above cold), got {y}"
        )
    if t_hot_k <= t_cold_k:
        raise ConfigurationError(
            f"hot temperature ({t_hot_k} K) must exceed cold ({t_cold_k} K)"
        )
    numerator = (t_hot_k / t0_k - 1.0) - y * (t_cold_k / t0_k - 1.0)
    factor = numerator / (y - 1.0)
    if factor < 1.0 - 1e-9:
        raise MeasurementError(
            f"Y={y} with Th={t_hot_k} K, Tc={t_cold_k} K implies F={factor:.4f} < 1; "
            "the measured Y is larger than a noiseless DUT would produce"
        )
    return max(factor, 1.0)


def noise_factor_from_y_powers(
    y: float,
    n_hot: float,
    n_cold: float,
    n0: float,
) -> float:
    """Power form of the Y-factor equation (paper eq 9).

    ``F = [(Nh/N0 - 1) - Y*(Nc/N0 - 1)] / (Y - 1)`` where the ``N`` are
    *source* noise powers (hot, cold and at T0) in any consistent unit.
    """
    if n0 <= 0:
        raise ConfigurationError(f"reference power N0 must be > 0, got {n0}")
    if y <= 1.0:
        raise MeasurementError(f"Y factor must exceed 1, got {y}")
    if n_hot <= n_cold:
        raise ConfigurationError(
            f"hot power ({n_hot}) must exceed cold power ({n_cold})"
        )
    numerator = (n_hot / n0 - 1.0) - y * (n_cold / n0 - 1.0)
    factor = numerator / (y - 1.0)
    if factor < 1.0 - 1e-9:
        raise MeasurementError(
            f"measured Y={y} implies F={factor:.4f} < 1; inconsistent powers"
        )
    return max(factor, 1.0)


def noise_figure_from_y(
    y: float,
    t_hot_k: float,
    t_cold_k: float = T0_KELVIN,
    t0_k: float = T0_KELVIN,
) -> float:
    """Noise figure in dB directly from a measured Y factor."""
    return f_to_nf(noise_factor_from_y(y, t_hot_k, t_cold_k, t0_k))


@dataclass(frozen=True)
class YFactorResult:
    """Outcome of a Y-factor noise measurement."""

    y: float
    noise_factor: float
    noise_figure_db: float
    noise_temperature_k: float
    p_hot: float
    p_cold: float

    @classmethod
    def from_y(
        cls,
        y: float,
        t_hot_k: float,
        t_cold_k: float = T0_KELVIN,
        t0_k: float = T0_KELVIN,
        p_hot: float = float("nan"),
        p_cold: float = float("nan"),
    ) -> "YFactorResult":
        """Build the result record from a measured Y and calibration temps."""
        factor = noise_factor_from_y(y, t_hot_k, t_cold_k, t0_k)
        return cls(
            y=y,
            noise_factor=factor,
            noise_figure_db=f_to_nf(factor),
            noise_temperature_k=noise_temperature_from_factor(factor, t0_k),
            p_hot=p_hot,
            p_cold=p_cold,
        )


def friis_cascade_factor(
    noise_factors: Sequence[float], power_gains: Sequence[float]
) -> float:
    """Friis formula for a chain of stages (section 6 of the paper)."""
    factors = list(noise_factors)
    gains = list(power_gains)
    if not factors:
        raise ConfigurationError("cascade needs at least one stage")
    if len(gains) != len(factors):
        raise ConfigurationError(
            f"need one gain per stage, got {len(factors)} factors and "
            f"{len(gains)} gains"
        )
    for f in factors:
        if f < 1.0:
            raise ConfigurationError(f"noise factors must be >= 1, got {f}")
    for g in gains:
        if g <= 0:
            raise ConfigurationError(f"gains must be > 0, got {g}")
    total = factors[0]
    running = gains[0]
    for f, g in zip(factors[1:], gains[1:]):
        total += (f - 1.0) / running
        running *= g
    return total
