"""Datasheet-style noise analysis (Burr-Brown AB-103 approach, ref [13]).

Produces the "expected" noise-figure column of the paper's Table 3: each
input-referred contributor is integrated over the measurement band through
the closed-loop response, yielding a per-contributor budget and the total
noise factor

``F = 1 + (integral of amplifier noise) / (integral of source noise)``.

Because both integrals pass through the same closed-loop |H|, a flat
response cancels exactly; 1/f-colored contributors make the band limits
matter, which is why the band is an explicit argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.constants import BOLTZMANN, T0_KELVIN, linear_to_db
from repro.analog.amplifier import NonInvertingAmplifier
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NoiseBudget:
    """Integrated noise budget over a measurement band.

    All contributions are input-referred mean-square voltages in V^2
    integrated over the band (through the closed-loop response).
    """

    f_low_hz: float
    f_high_hz: float
    contributions: Dict[str, float]
    source_v2: float
    amplifier_v2: float
    noise_factor: float
    noise_figure_db: float

    def dominant_contributor(self) -> str:
        """Name of the largest amplifier-noise contributor."""
        return max(self.contributions, key=self.contributions.get)


def _band_grid(f_low: float, f_high: float, n_points: int) -> np.ndarray:
    if f_low <= 0 or f_high <= f_low:
        raise ConfigurationError(
            f"need 0 < f_low < f_high, got [{f_low}, {f_high}]"
        )
    if n_points < 16:
        raise ConfigurationError(f"n_points must be >= 16, got {n_points}")
    return np.linspace(f_low, f_high, n_points)


def noise_budget(
    amplifier: NonInvertingAmplifier,
    f_low_hz: float,
    f_high_hz: float,
    source_temperature_k: float = T0_KELVIN,
    n_points: int = 2001,
) -> NoiseBudget:
    """Integrate every noise contributor over ``[f_low, f_high]``.

    The source resistor is evaluated at ``source_temperature_k`` (the
    noise-figure definition wants 290 K).
    """
    freqs = _band_grid(f_low_hz, f_high_hz, n_points)
    h2 = amplifier.closed_loop_magnitude(freqs) ** 2

    rs = amplifier.source_resistance_ohm
    rp = amplifier.feedback_parallel_ohm
    en2 = amplifier.opamp.en_density(freqs)
    in2 = amplifier.opamp.in_density(freqs)
    johnson_rp = 4.0 * BOLTZMANN * amplifier.temperature_k * rp
    src_density = 4.0 * BOLTZMANN * source_temperature_k * rs

    def integrate(density) -> float:
        return float(np.trapezoid(np.asarray(density) * h2, freqs))

    contributions = {
        "opamp_voltage_noise": integrate(en2),
        "opamp_current_noise_rs": integrate(in2 * rs**2),
        "opamp_current_noise_rp": integrate(in2 * rp**2),
        "feedback_network_johnson": integrate(np.full_like(freqs, johnson_rp)),
    }
    amplifier_v2 = float(sum(contributions.values()))
    source_v2 = integrate(np.full_like(freqs, src_density))
    if source_v2 <= 0:
        raise ConfigurationError(
            "source noise integral is zero; check temperature and band"
        )
    factor = 1.0 + amplifier_v2 / source_v2
    return NoiseBudget(
        f_low_hz=f_low_hz,
        f_high_hz=f_high_hz,
        contributions=contributions,
        source_v2=source_v2,
        amplifier_v2=amplifier_v2,
        noise_factor=factor,
        noise_figure_db=linear_to_db(factor),
    )


def expected_noise_figure_db(
    amplifier: NonInvertingAmplifier,
    f_low_hz: float,
    f_high_hz: float,
    n_points: int = 2001,
) -> float:
    """The "expected" NF column of Table 3 (analytical, source at 290 K)."""
    return noise_budget(
        amplifier, f_low_hz, f_high_hz, T0_KELVIN, n_points
    ).noise_figure_db


def cascade_noise_factor(
    dut: NonInvertingAmplifier,
    post_amplifier: NonInvertingAmplifier,
    f_low_hz: float,
    f_high_hz: float,
) -> float:
    """Friis noise factor of DUT followed by a post-amplifier.

    The post-amplifier's own noise factor is referred to the DUT's output
    impedance context; its excess noise is divided by the DUT's available
    power gain (``Av^2`` in this voltage-mode model).  Section 6 of the
    paper uses this to argue the conditioning amplifier adds little.
    """
    f_dut = noise_budget(dut, f_low_hz, f_high_hz).noise_factor
    f_post = noise_budget(post_amplifier, f_low_hz, f_high_hz).noise_factor
    return f_dut + (f_post - 1.0) / (dut.gain**2)
