"""Signal and noise sources.

Each source renders a :class:`~repro.signals.waveform.Waveform` of a given
length at a given sample rate.  Deterministic sources (sine, square) ignore
the random generator; stochastic sources require one so experiments remain
reproducible.

The paper's method needs exactly these stimuli:

* a constant-amplitude *reference waveform* (square wave in the Matlab
  simulation of section 5.2, a 3 kHz sine in the prototype of section 5.4);
* Gaussian noise of programmable power — the hot/cold noise-source outputs
  and every amplifier noise contributor;
* frequency-shaped noise for opamp 1/f regions.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Sequence

import numpy as np

from repro.buffers import default_pool
from repro.constants import BOLTZMANN
from repro.errors import ConfigurationError
from repro.signals.batch_rng import white_noise_matrix
from repro.signals.random import GeneratorLike, make_rng
from repro.signals.waveform import Waveform


def _validate_render_args(n_samples: int, sample_rate: float) -> None:
    if n_samples < 0:
        raise ConfigurationError(f"n_samples must be >= 0, got {n_samples}")
    if not np.isfinite(sample_rate) or sample_rate <= 0:
        raise ConfigurationError(f"sample_rate must be > 0, got {sample_rate!r}")


class SignalSource(abc.ABC):
    """Abstract waveform source."""

    @abc.abstractmethod
    def render(
        self, n_samples: int, sample_rate: float, rng: GeneratorLike = None
    ) -> Waveform:
        """Render ``n_samples`` at ``sample_rate`` Hz."""

    def render_batch(
        self, n_samples: int, sample_rate: float, rngs: Sequence[GeneratorLike]
    ) -> np.ndarray:
        """Render one record per generator as a stacked 2-D array.

        Row ``i`` is bit-exact equal to ``render(n_samples, sample_rate,
        rngs[i]).samples`` — batch paths must preserve per-record
        reproducibility.  Subclasses override this to vectorize the
        deterministic work (e.g. FFT shaping) across records while
        keeping each record's random draws on its own generator.
        """
        rngs = list(rngs)
        out = np.empty((len(rngs), int(n_samples)))
        for i, rng in enumerate(rngs):
            out[i] = self.render(n_samples, sample_rate, rng).samples
        return out

    def __add__(self, other: "SignalSource") -> "CompositeSource":
        if not isinstance(other, SignalSource):
            return NotImplemented
        return CompositeSource([self, other])


class SineSource(SignalSource):
    """Pure sine wave ``amplitude * sin(2*pi*f*t + phase) + dc``."""

    def __init__(
        self,
        frequency_hz: float,
        amplitude: float,
        phase_rad: float = 0.0,
        dc: float = 0.0,
    ):
        if frequency_hz < 0:
            raise ConfigurationError(f"frequency must be >= 0, got {frequency_hz}")
        if amplitude < 0:
            raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
        self.frequency_hz = float(frequency_hz)
        self.amplitude = float(amplitude)
        self.phase_rad = float(phase_rad)
        self.dc = float(dc)

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        if self.frequency_hz >= sample_rate / 2.0 and self.frequency_hz > 0:
            raise ConfigurationError(
                f"sine frequency {self.frequency_hz} Hz is not below the "
                f"Nyquist frequency {sample_rate / 2.0} Hz"
            )
        unit = _unit_sine(
            self.frequency_hz, self.phase_rad, n_samples, sample_rate
        )
        return Waveform(self.amplitude * unit + self.dc, sample_rate)


@functools.lru_cache(maxsize=4)
def _unit_sine(
    frequency_hz: float, phase_rad: float, n_samples: int, sample_rate: float
) -> np.ndarray:
    """``sin(2*pi*f*t + phase)``, cached read-only.

    Every bench of a lot renders its reference at one frequency and
    record length and differs only in amplitude, so the ``sin`` pass
    runs once; scaling the cached array is the float arithmetic a fresh
    render does, so :meth:`SineSource.render` stays bit-identical.
    """
    t = np.arange(n_samples) / sample_rate
    unit = np.sin(2.0 * np.pi * frequency_hz * t + phase_rad)
    unit.setflags(write=False)
    return unit


class SquareSource(SignalSource):
    """Constant-amplitude square wave toggling between ``+A`` and ``-A``.

    The Matlab simulation of the paper (section 5.2, figures 7-9) uses a
    square wave as the reference; the fundamental line carries
    ``(4/pi) * A`` amplitude and the odd harmonics fall off as ``1/n``.
    """

    def __init__(
        self,
        frequency_hz: float,
        amplitude: float,
        phase_rad: float = 0.0,
        duty: float = 0.5,
        dc: float = 0.0,
    ):
        if frequency_hz <= 0:
            raise ConfigurationError(f"frequency must be > 0, got {frequency_hz}")
        if amplitude < 0:
            raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
        if not 0.0 < duty < 1.0:
            raise ConfigurationError(f"duty cycle must be in (0, 1), got {duty}")
        self.frequency_hz = float(frequency_hz)
        self.amplitude = float(amplitude)
        self.phase_rad = float(phase_rad)
        self.duty = float(duty)
        self.dc = float(dc)

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        if self.frequency_hz >= sample_rate / 2.0:
            raise ConfigurationError(
                f"square-wave frequency {self.frequency_hz} Hz is not below "
                f"the Nyquist frequency {sample_rate / 2.0} Hz"
            )
        # One array holds the cycle phase, then the output: the float
        # operations of (f*t + phase/2pi) % 1 and where(...) + dc, with
        # no float temporaries.
        out = np.arange(n_samples, dtype=float)
        out /= sample_rate
        out *= self.frequency_hz
        out += self.phase_rad / (2.0 * np.pi)
        out %= 1.0
        high = out < self.duty
        out.fill(-self.amplitude + self.dc)
        out[high] = self.amplitude + self.dc
        return Waveform(out, sample_rate)


class GaussianNoiseSource(SignalSource):
    """White Gaussian noise with a prescribed RMS level (std deviation).

    Discrete white noise of variance ``sigma^2`` sampled at ``fs`` has a
    flat one-sided PSD of ``2*sigma^2/fs`` V^2/Hz up to the Nyquist
    frequency.
    """

    def __init__(self, rms: float, mean: float = 0.0):
        if rms < 0:
            raise ConfigurationError(f"rms must be >= 0, got {rms}")
        self.rms = float(rms)
        self.mean = float(mean)

    @classmethod
    def from_density(
        cls, density_v2_per_hz: float, sample_rate: float
    ) -> "GaussianNoiseSource":
        """Create a source whose one-sided PSD is flat at the given density.

        The variance that yields a one-sided density ``S`` at sample rate
        ``fs`` is ``sigma^2 = S * fs / 2`` (all power below Nyquist).
        """
        if density_v2_per_hz < 0:
            raise ConfigurationError(
                f"density must be >= 0, got {density_v2_per_hz}"
            )
        if sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be > 0, got {sample_rate}")
        return cls(rms=float(np.sqrt(density_v2_per_hz * sample_rate / 2.0)))

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        gen = make_rng(rng)
        samples = gen.normal(self.mean, self.rms, size=n_samples)
        return Waveform(samples, sample_rate)

    def render_batch(
        self, n_samples, sample_rate, rngs, out=None
    ) -> np.ndarray:
        """Stacked records, one per generator (no Waveform copies).

        Row ``i`` replays ``rngs[i]``'s own stream bit for bit.  The
        records are drawn into ``out`` when given (float64, one row per
        generator), which is returned; otherwise into a fresh array.
        """
        _validate_render_args(n_samples, sample_rate)
        return white_noise_matrix(
            rngs, n_samples, mean=self.mean, scale=self.rms, out=out
        )


class ThermalNoiseSource(SignalSource):
    """Johnson noise of a resistor at a given temperature.

    Renders white Gaussian noise whose one-sided voltage density is
    ``4*k*T*R`` V^2/Hz — the open-circuit noise of the resistor.  This is
    the physical model behind the calibrated hot/cold noise source of the
    Y-factor method.
    """

    def __init__(self, resistance_ohm: float, temperature_k: float):
        if resistance_ohm < 0:
            raise ConfigurationError(
                f"resistance must be >= 0, got {resistance_ohm}"
            )
        if temperature_k < 0:
            raise ConfigurationError(
                f"temperature must be >= 0 K, got {temperature_k}"
            )
        self.resistance_ohm = float(resistance_ohm)
        self.temperature_k = float(temperature_k)

    @property
    def density_v2_per_hz(self) -> float:
        """One-sided voltage noise density ``4kTR`` in V^2/Hz."""
        return 4.0 * BOLTZMANN * self.temperature_k * self.resistance_ohm

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        inner = GaussianNoiseSource.from_density(self.density_v2_per_hz, sample_rate)
        return inner.render(n_samples, sample_rate, rng)

    def render_batch(self, n_samples, sample_rate, rngs) -> np.ndarray:
        """Stacked Johnson-noise records through the shared white kernel.

        Same contract as :meth:`GaussianNoiseSource.render_batch`: row
        ``i`` replays ``render(..., rngs[i])`` bit for bit.
        """
        _validate_render_args(n_samples, sample_rate)
        inner = GaussianNoiseSource.from_density(self.density_v2_per_hz, sample_rate)
        return white_noise_matrix(
            rngs, n_samples, mean=inner.mean, scale=inner.rms
        )


class ShapedNoiseSource(SignalSource):
    """Gaussian noise with an arbitrary one-sided PSD shape.

    ``density_fn(f)`` must return the one-sided PSD in V^2/Hz for an array
    of frequencies in ``[0, fs/2]``.  The shaping is done in the frequency
    domain: white Gaussian spectra are weighted by ``sqrt(S(f))`` and
    transformed back, which gives a stationary Gaussian process with the
    requested spectrum (up to FFT-grid resolution).

    This implements opamp voltage/current noise with 1/f corners, e.g.
    ``S(f) = en^2 * (1 + fc/f)``.
    """

    def __init__(self, density_fn: Callable[[np.ndarray], np.ndarray]):
        if not callable(density_fn):
            raise ConfigurationError("density_fn must be callable")
        self.density_fn = density_fn

    @classmethod
    def one_over_f(
        cls, white_density_v2_per_hz: float, corner_hz: float, f_min_hz: float = 1e-2
    ) -> "ShapedNoiseSource":
        """White + 1/f noise: ``S(f) = S0 * (1 + fc / max(f, f_min))``."""
        if white_density_v2_per_hz < 0:
            raise ConfigurationError(
                f"white density must be >= 0, got {white_density_v2_per_hz}"
            )
        if corner_hz < 0:
            raise ConfigurationError(f"corner must be >= 0, got {corner_hz}")
        if f_min_hz <= 0:
            raise ConfigurationError(f"f_min must be > 0, got {f_min_hz}")

        def density(f: np.ndarray) -> np.ndarray:
            safe_f = np.maximum(np.asarray(f, dtype=float), f_min_hz)
            return white_density_v2_per_hz * (1.0 + corner_hz / safe_f)

        return cls(density)

    def _checked_density(self, n_samples: int, sample_rate: float) -> np.ndarray:
        freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
        density = np.asarray(self.density_fn(freqs), dtype=float)
        if density.shape != freqs.shape:
            raise ConfigurationError(
                "density_fn must return one value per frequency: "
                f"expected shape {freqs.shape}, got {density.shape}"
            )
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ConfigurationError(
                "density_fn must return finite non-negative values"
            )
        return density

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        if n_samples == 0:
            return Waveform(np.zeros(0), sample_rate)
        gen = make_rng(rng)
        density = self._checked_density(n_samples, sample_rate)
        # White Gaussian noise has a flat one-sided PSD of 2/fs per unit
        # variance; weight its spectrum by sqrt(S(f) * fs / 2) to reach the
        # requested density.
        white = gen.normal(0.0, 1.0, size=n_samples)
        spectrum = np.fft.rfft(white)
        spectrum *= np.sqrt(density * sample_rate / 2.0)
        spectrum[0] = 0.0  # force zero mean
        samples = np.fft.irfft(spectrum, n=n_samples)
        return Waveform(samples, sample_rate)

    def render_batch(
        self, n_samples, sample_rate, rngs, out=None
    ) -> np.ndarray:
        """Stacked shaped-noise records, shaped in place.

        Each record's white draws come from its own generator (in the
        same order as :meth:`render`) and land in ``out`` when given
        (float64, one row per generator), otherwise in a fresh array;
        each row is then shaped through one pooled half-spectrum with
        :meth:`render`'s ``rfft``/``irfft`` pair, so row ``i`` equals
        ``render(n_samples, sample_rate, rngs[i]).samples`` bit for bit.
        At full-record lengths the per-row transforms are also faster
        than one batched call over the stack.
        """
        _validate_render_args(n_samples, sample_rate)
        rngs = list(rngs)
        n = int(n_samples)
        if n == 0:
            return white_noise_matrix(rngs, 0, out=out)
        density = self._checked_density(n, sample_rate)
        weight = np.sqrt(density * sample_rate / 2.0)
        out = white_noise_matrix(rngs, n, out=out)
        spectrum = default_pool.take(
            "shaped_noise.spectrum", n // 2 + 1, np.complex128
        )
        for row in out:
            np.fft.rfft(row, out=spectrum)
            spectrum *= weight
            spectrum[0] = 0.0  # force zero mean
            np.fft.irfft(spectrum, n=n, out=row)
        return out


class CompositeSource(SignalSource):
    """Sum of several sources rendered with independent random streams."""

    def __init__(self, sources: Sequence[SignalSource]):
        sources = list(sources)
        if not sources:
            raise ConfigurationError("CompositeSource needs at least one source")
        for src in sources:
            if not isinstance(src, SignalSource):
                raise ConfigurationError(
                    f"all members must be SignalSource, got {type(src).__name__}"
                )
        self.sources = sources

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        gen = make_rng(rng)
        total = np.zeros(n_samples)
        for src in self.sources:
            # Each member draws from the shared generator stream; the
            # members stay independent because the stream advances.
            total = total + src.render(n_samples, sample_rate, gen).samples
        return Waveform(total, sample_rate)


class DCSource(SignalSource):
    """Constant DC level (useful for comparator offset experiments)."""

    def __init__(self, level: float):
        self.level = float(level)

    def render(self, n_samples, sample_rate, rng=None) -> Waveform:
        _validate_render_args(n_samples, sample_rate)
        return Waveform(np.full(n_samples, self.level), sample_rate)
