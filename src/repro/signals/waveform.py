"""Sampled-waveform container used throughout the library.

A :class:`Waveform` couples a 1-D ``numpy`` sample array with its sample
rate, so downstream DSP (PSD estimation, band power) can always recover
physical frequencies.  Arithmetic between waveforms checks sample-rate and
length compatibility instead of silently broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Waveform:
    """An immutable, uniformly sampled real-valued waveform.

    Parameters
    ----------
    samples:
        1-D array of sample values (volts unless documented otherwise).
    sample_rate:
        Sampling frequency in Hz; must be positive.
    """

    samples: np.ndarray
    sample_rate: float

    def __init__(self, samples, sample_rate: float):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"waveform samples must be 1-D, got shape {arr.shape}"
            )
        if not np.isfinite(sample_rate) or sample_rate <= 0:
            raise ConfigurationError(
                f"sample_rate must be a positive finite number, got {sample_rate!r}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", float(sample_rate))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.samples.size

    @property
    def n_samples(self) -> int:
        """Number of samples."""
        return self.samples.size

    @property
    def duration(self) -> float:
        """Record length in seconds."""
        return self.samples.size / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        """Sample time stamps in seconds (starting at 0)."""
        return np.arange(self.samples.size) / self.sample_rate

    @property
    def nyquist(self) -> float:
        """Nyquist frequency in Hz."""
        return self.sample_rate / 2.0

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return float(np.mean(self.samples)) if self.samples.size else 0.0

    def mean_square(self) -> float:
        """Mean-square value (total power into 1 ohm, V^2)."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(self.samples**2))

    def rms(self) -> float:
        """Root-mean-square value in volts."""
        return float(np.sqrt(self.mean_square()))

    def std(self) -> float:
        """Standard deviation (AC RMS) of the samples."""
        return float(np.std(self.samples)) if self.samples.size else 0.0

    def peak(self) -> float:
        """Maximum absolute sample value."""
        return float(np.max(np.abs(self.samples))) if self.samples.size else 0.0

    def crest_factor(self) -> float:
        """Peak-to-RMS ratio; ``inf`` for an all-zero waveform."""
        rms = self.rms()
        if rms == 0.0:
            return float("inf")
        return self.peak() / rms

    # ------------------------------------------------------------------
    # Transformations (all return new Waveform instances)
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "Waveform":
        """Return the waveform multiplied by a scalar gain."""
        return Waveform(self.samples * float(factor), self.sample_rate)

    def offset(self, dc: float) -> "Waveform":
        """Return the waveform with a DC offset added."""
        return Waveform(self.samples + float(dc), self.sample_rate)

    def remove_mean(self) -> "Waveform":
        """Return a zero-mean copy."""
        return Waveform(self.samples - self.mean(), self.sample_rate)

    def to_packed(self):
        """Pack a ``+/-1`` bitstream waveform to 1 bit/sample.

        Returns a :class:`~repro.bitstream.PackedBitstream` (raises
        for non-bitstream waveforms).  The inverse is
        ``PackedBitstream.to_waveform()``; the round-trip is exact.
        """
        from repro.bitstream import PackedBitstream  # avoid import cycle

        return PackedBitstream.pack(self)

    def slice(self, start: int, stop: int) -> "Waveform":
        """Return samples ``[start:stop)`` as a new waveform."""
        if not 0 <= start <= stop <= self.samples.size:
            raise ConfigurationError(
                f"invalid slice [{start}:{stop}) for waveform of "
                f"{self.samples.size} samples"
            )
        return Waveform(self.samples[start:stop], self.sample_rate)

    def _check_compatible(self, other: "Waveform") -> None:
        if not isinstance(other, Waveform):
            raise TypeError(f"expected Waveform, got {type(other).__name__}")
        if other.sample_rate != self.sample_rate:
            raise ConfigurationError(
                "sample-rate mismatch: "
                f"{self.sample_rate} Hz vs {other.sample_rate} Hz"
            )
        if other.samples.size != self.samples.size:
            raise ConfigurationError(
                "length mismatch: "
                f"{self.samples.size} vs {other.samples.size} samples"
            )

    def __add__(self, other):
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return Waveform(self.samples + other.samples, self.sample_rate)
        if isinstance(other, (int, float)):
            return self.offset(float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Waveform):
            self._check_compatible(other)
            return Waveform(self.samples - other.samples, self.sample_rate)
        if isinstance(other, (int, float)):
            return self.offset(-float(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Waveform):
            return NotImplemented
        return (
            self.sample_rate == other.sample_rate
            and self.samples.shape == other.samples.shape
            and bool(np.all(self.samples == other.samples))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Waveform(n={self.samples.size}, fs={self.sample_rate:g} Hz, "
            f"rms={self.rms():.4g})"
        )


def concatenate(waveforms) -> Waveform:
    """Concatenate several waveforms sharing a sample rate."""
    waveforms = list(waveforms)
    if not waveforms:
        raise ConfigurationError("cannot concatenate an empty waveform list")
    rate = waveforms[0].sample_rate
    for wave in waveforms[1:]:
        if wave.sample_rate != rate:
            raise ConfigurationError(
                f"sample-rate mismatch in concatenate: {rate} vs {wave.sample_rate}"
            )
    return Waveform(np.concatenate([w.samples for w in waveforms]), rate)
