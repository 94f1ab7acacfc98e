"""Bench function generator model (HP33120A-like).

Supports the three outputs the prototype needs: sine, square and Gaussian
noise, programmed in peak-to-peak volts like the physical instrument.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike
from repro.signals.sources import (
    GaussianNoiseSource,
    SignalSource,
    SineSource,
    SquareSource,
)
from repro.signals.waveform import Waveform

_WAVEFORM_KINDS = ("sine", "square", "noise")

#: Gaussian crest factor the instrument assumes when mapping a noise
#: output's Vpp setting to an RMS level (HP instruments quote ~3 sigma
#: per side, i.e. Vpp ~ 6 sigma).
NOISE_VPP_PER_RMS = 6.0


class FunctionGenerator:
    """A programmable signal generator.

    Parameters
    ----------
    kind:
        ``"sine"``, ``"square"`` or ``"noise"``.
    frequency_hz:
        Output frequency (ignored for ``"noise"``).
    vpp:
        Peak-to-peak output amplitude in volts.
    offset_v:
        DC offset.
    """

    def __init__(
        self,
        kind: str,
        frequency_hz: float = 0.0,
        vpp: float = 1.0,
        offset_v: float = 0.0,
    ):
        if kind not in _WAVEFORM_KINDS:
            raise ConfigurationError(
                f"kind must be one of {_WAVEFORM_KINDS}, got {kind!r}"
            )
        if vpp < 0:
            raise ConfigurationError(f"vpp must be >= 0, got {vpp}")
        if kind in ("sine", "square") and frequency_hz <= 0:
            raise ConfigurationError(
                f"{kind} output needs a positive frequency, got {frequency_hz}"
            )
        self.kind = kind
        self.frequency_hz = float(frequency_hz)
        self.vpp = float(vpp)
        self.offset_v = float(offset_v)

    # ------------------------------------------------------------------
    @property
    def amplitude(self) -> float:
        """Peak amplitude for deterministic outputs (``vpp / 2``)."""
        return self.vpp / 2.0

    @property
    def noise_rms(self) -> float:
        """RMS level of the noise output implied by the Vpp setting."""
        return self.vpp / NOISE_VPP_PER_RMS

    def as_source(self) -> SignalSource:
        """The generator's output as a reusable SignalSource."""
        if self.kind == "sine":
            return SineSource(self.frequency_hz, self.amplitude, dc=self.offset_v)
        if self.kind == "square":
            return SquareSource(self.frequency_hz, self.amplitude, dc=self.offset_v)
        return GaussianNoiseSource(self.noise_rms, mean=self.offset_v)

    def output(
        self, n_samples: int, sample_rate: float, rng: GeneratorLike = None
    ) -> Waveform:
        """Render the generator output."""
        return self.as_source().render(n_samples, sample_rate, rng)
