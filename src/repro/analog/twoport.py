"""Two-port gain/noise abstraction and the Friis cascade formula.

The paper's section 6 notes that the noise figure of a cascade is
dominated by its first stage; this module provides the standard Friis
machinery used to reason about the DUT + post-amplifier chain and to
verify that claim quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.constants import T0_KELVIN, db_to_linear, linear_to_db
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TwoPort:
    """A noisy two-port characterized by power gain and noise factor.

    Parameters
    ----------
    gain_linear:
        Available power gain (linear, > 0).
    noise_factor:
        Noise factor F (linear, >= 1).
    name:
        Optional label used in reports.
    """

    gain_linear: float
    noise_factor: float
    name: str = ""

    def __post_init__(self):
        if self.gain_linear <= 0:
            raise ConfigurationError(
                f"gain must be > 0, got {self.gain_linear} ({self.name!r})"
            )
        if self.noise_factor < 1.0:
            raise ConfigurationError(
                f"noise factor must be >= 1, got {self.noise_factor} "
                f"({self.name!r})"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_db(
        cls, gain_db: float, noise_figure_db: float, name: str = ""
    ) -> "TwoPort":
        """Build from gain and noise figure in dB."""
        return cls(
            gain_linear=db_to_linear(gain_db),
            noise_factor=db_to_linear(noise_figure_db),
            name=name,
        )

    @classmethod
    def from_noise_temperature(
        cls, gain_linear: float, te_kelvin: float, name: str = ""
    ) -> "TwoPort":
        """Build from an equivalent input noise temperature."""
        if te_kelvin < 0:
            raise ConfigurationError(
                f"noise temperature must be >= 0 K, got {te_kelvin}"
            )
        return cls(gain_linear, 1.0 + te_kelvin / T0_KELVIN, name)

    # ------------------------------------------------------------------
    @property
    def gain_db(self) -> float:
        """Power gain in dB."""
        return linear_to_db(self.gain_linear)

    @property
    def noise_figure_db(self) -> float:
        """Noise figure NF = 10*log10(F) (paper eq 3)."""
        return linear_to_db(self.noise_factor)

    @property
    def noise_temperature_k(self) -> float:
        """Equivalent input noise temperature ``(F-1)*T0`` in kelvin."""
        return (self.noise_factor - 1.0) * T0_KELVIN


def cascade(stages: Sequence[TwoPort], name: str = "cascade") -> TwoPort:
    """Friis cascade of two-ports.

    ``F = F1 + (F2-1)/G1 + (F3-1)/(G1*G2) + ...`` and gains multiply.
    """
    stages = list(stages)
    if not stages:
        raise ConfigurationError("cascade needs at least one stage")
    total_f = stages[0].noise_factor
    running_gain = stages[0].gain_linear
    for stage in stages[1:]:
        total_f += (stage.noise_factor - 1.0) / running_gain
        running_gain *= stage.gain_linear
    return TwoPort(running_gain, total_f, name=name)


def attenuator_twoport(loss_db: float, temperature_k: float = T0_KELVIN) -> TwoPort:
    """A matched passive attenuator at physical temperature T.

    Loss L (linear >= 1) at temperature T has ``Te = (L-1)*T`` and thus
    ``F = 1 + (L-1)*T/T0`` — equal to L when T = T0.
    """
    if loss_db < 0:
        raise ConfigurationError(f"loss must be >= 0 dB, got {loss_db}")
    loss = db_to_linear(loss_db)
    te = (loss - 1.0) * temperature_k
    return TwoPort.from_noise_temperature(1.0 / loss, te, name=f"att{loss_db:g}dB")
