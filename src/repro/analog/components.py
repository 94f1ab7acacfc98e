"""Passive components: resistors (Johnson noise) and attenuators.

These are the building blocks of the noise-source chain of figures 4-5
(noise generator -> programmable attenuator -> DUT).
"""

from __future__ import annotations

from repro.constants import BOLTZMANN, T0_KELVIN, db_to_linear
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike
from repro.signals.sources import GaussianNoiseSource
from repro.signals.waveform import Waveform


class Resistor:
    """A resistor with Johnson noise at a programmable temperature."""

    def __init__(self, resistance_ohm: float, temperature_k: float = T0_KELVIN):
        if resistance_ohm < 0:
            raise ConfigurationError(
                f"resistance must be >= 0 ohm, got {resistance_ohm}"
            )
        if temperature_k < 0:
            raise ConfigurationError(
                f"temperature must be >= 0 K, got {temperature_k}"
            )
        self.resistance_ohm = float(resistance_ohm)
        self.temperature_k = float(temperature_k)

    @property
    def noise_density_v2_per_hz(self) -> float:
        """Open-circuit voltage noise density ``4kTR`` in V^2/Hz."""
        return 4.0 * BOLTZMANN * self.temperature_k * self.resistance_ohm

    def render_noise(
        self, n_samples: int, sample_rate: float, rng: GeneratorLike = None
    ) -> Waveform:
        """Render the open-circuit Johnson noise as a waveform."""
        source = GaussianNoiseSource.from_density(
            self.noise_density_v2_per_hz, sample_rate
        )
        return source.render(n_samples, sample_rate, rng)

    def parallel(self, other: "Resistor") -> "Resistor":
        """Parallel combination (temperatures must match)."""
        if not isinstance(other, Resistor):
            raise ConfigurationError(
                f"can only parallel with Resistor, got {type(other).__name__}"
            )
        if other.temperature_k != self.temperature_k:
            raise ConfigurationError(
                "parallel combination requires equal temperatures, got "
                f"{self.temperature_k} K and {other.temperature_k} K"
            )
        if self.resistance_ohm == 0 or other.resistance_ohm == 0:
            return Resistor(0.0, self.temperature_k)
        value = (
            self.resistance_ohm
            * other.resistance_ohm
            / (self.resistance_ohm + other.resistance_ohm)
        )
        return Resistor(value, self.temperature_k)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Resistor({self.resistance_ohm:g} ohm @ {self.temperature_k:g} K)"


class Attenuator:
    """A programmable voltage attenuator (figures 4-5).

    ``loss_db`` is a power loss; the voltage scaling is
    ``10**(-loss_db/20)``.  The model is ideal (noiseless) because in the
    Y-factor chain the attenuator's contribution is folded into the
    calibrated equivalent temperatures of
    :class:`~repro.analog.noise_source.CalibratedNoiseSource`.
    """

    def __init__(self, loss_db: float = 0.0):
        self.set_loss(loss_db)

    def set_loss(self, loss_db: float) -> None:
        """Program a new attenuation value (>= 0 dB)."""
        if loss_db < 0:
            raise ConfigurationError(f"loss must be >= 0 dB, got {loss_db}")
        self.loss_db = float(loss_db)

    @property
    def voltage_factor(self) -> float:
        """Linear voltage transmission factor (<= 1)."""
        return 10.0 ** (-self.loss_db / 20.0)

    @property
    def power_factor(self) -> float:
        """Linear power transmission factor (<= 1)."""
        return db_to_linear(-self.loss_db)

    def process(self, wave: Waveform) -> Waveform:
        """Attenuate a waveform."""
        return wave.scaled(self.voltage_factor)

    def attenuate_temperature(self, t_excess_k: float) -> float:
        """Excess noise temperature after attenuation.

        An excess temperature (above ambient) is reduced by the power
        factor; the ambient part is unchanged for a matched attenuator at
        ambient temperature.
        """
        if t_excess_k < 0:
            raise ConfigurationError(
                f"excess temperature must be >= 0 K, got {t_excess_k}"
            )
        return t_excess_k * self.power_factor
