"""Band-limiting filters applied to waveforms.

The analog chain in the paper band-limits the noise before the comparator
(the post-amplifier pole sits near 3.5 kHz).  These wrappers keep all
filtering on :class:`~repro.signals.waveform.Waveform` objects and use
``scipy.signal`` second-order sections for numerical robustness.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _sig

from repro.errors import ConfigurationError
from repro.signals.waveform import Waveform


def _check_cutoff(cutoff_hz: float, sample_rate: float, name: str = "cutoff") -> None:
    if cutoff_hz <= 0:
        raise ConfigurationError(f"{name} must be > 0 Hz, got {cutoff_hz}")
    if cutoff_hz >= sample_rate / 2.0:
        raise ConfigurationError(
            f"{name} {cutoff_hz} Hz must be below Nyquist ({sample_rate / 2.0} Hz)"
        )


def lowpass(wave: Waveform, cutoff_hz: float, order: int = 4) -> Waveform:
    """Butterworth low-pass filter (zero state, causal)."""
    _check_cutoff(cutoff_hz, wave.sample_rate)
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    sos = _sig.butter(order, cutoff_hz, btype="low", fs=wave.sample_rate, output="sos")
    return Waveform(_sig.sosfilt(sos, wave.samples), wave.sample_rate)


def highpass(wave: Waveform, cutoff_hz: float, order: int = 4) -> Waveform:
    """Butterworth high-pass filter (zero state, causal)."""
    _check_cutoff(cutoff_hz, wave.sample_rate)
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    sos = _sig.butter(order, cutoff_hz, btype="high", fs=wave.sample_rate, output="sos")
    return Waveform(_sig.sosfilt(sos, wave.samples), wave.sample_rate)


def bandpass(wave: Waveform, f_low_hz: float, f_high_hz: float, order: int = 4) -> Waveform:
    """Butterworth band-pass filter between ``f_low`` and ``f_high``."""
    _check_cutoff(f_low_hz, wave.sample_rate, "f_low")
    _check_cutoff(f_high_hz, wave.sample_rate, "f_high")
    if f_low_hz >= f_high_hz:
        raise ConfigurationError(
            f"f_low ({f_low_hz} Hz) must be below f_high ({f_high_hz} Hz)"
        )
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    sos = _sig.butter(
        order, [f_low_hz, f_high_hz], btype="band", fs=wave.sample_rate, output="sos"
    )
    return Waveform(_sig.sosfilt(sos, wave.samples), wave.sample_rate)


def single_pole_lowpass_array(
    samples: np.ndarray, sample_rate: float, pole_hz: float
) -> np.ndarray:
    """Single-pole low-pass applied along the last axis of an array.

    The batch form of :func:`single_pole_lowpass`: each row is filtered
    independently (and bit-identically to the 1-D call), so stacked
    records go through ``scipy`` in one pass.
    """
    _check_cutoff(pole_hz, sample_rate, "pole")
    b, a = _sig.bilinear(
        [1.0], [1.0 / (2.0 * np.pi * pole_hz), 1.0], fs=sample_rate
    )
    return _sig.lfilter(b, a, samples, axis=-1)


def single_pole_lowpass_power(
    freqs_hz: np.ndarray, sample_rate: float, pole_hz: float
) -> np.ndarray:
    """|H(f)|^2 of the digital filter :func:`single_pole_lowpass_array`
    applies.

    The bilinear transform maps ``f`` to the analog frequency
    ``2*fs*tan(pi*f/fs)``, so the power response is
    ``1 / (1 + (2*fs*tan(pi*f/fs) / (2*pi*f_pole))**2)`` — equal to
    ``|freqz|^2`` of the ``lfilter`` coefficients to rounding, and
    (unlike the analog :func:`single_pole_magnitude`) zero at Nyquist.
    """
    _check_cutoff(pole_hz, sample_rate, "pole")
    f = np.asarray(freqs_hz, dtype=float)
    w = np.tan(f * (np.pi / sample_rate)) * (sample_rate / (np.pi * pole_hz))
    return 1.0 / (1.0 + w * w)


def single_pole_lowpass(wave: Waveform, pole_hz: float) -> Waveform:
    """First-order (single-pole) low-pass — the closed-loop opamp response.

    Implemented with the bilinear transform of ``H(s)=1/(1+s/wp)`` so the
    DC gain is exactly one.
    """
    return Waveform(
        single_pole_lowpass_array(wave.samples, wave.sample_rate, pole_hz),
        wave.sample_rate,
    )


def single_pole_magnitude(freqs_hz: np.ndarray, pole_hz: float) -> np.ndarray:
    """|H(f)| of a single-pole low-pass (analytical, for noise analysis)."""
    if pole_hz <= 0:
        raise ConfigurationError(f"pole must be > 0 Hz, got {pole_hz}")
    f = np.asarray(freqs_hz, dtype=float)
    return 1.0 / np.sqrt(1.0 + (f / pole_hz) ** 2)


def equivalent_noise_bandwidth_single_pole(pole_hz: float) -> float:
    """ENBW of a single-pole low-pass: ``pi/2 * f_pole``."""
    if pole_hz <= 0:
        raise ConfigurationError(f"pole must be > 0 Hz, got {pole_hz}")
    return float(np.pi / 2.0 * pole_hz)


def decimate(wave: Waveform, factor: int) -> Waveform:
    """Anti-aliased decimation by an integer factor."""
    if factor < 1:
        raise ConfigurationError(f"decimation factor must be >= 1, got {factor}")
    if factor == 1:
        return wave
    out = _sig.decimate(wave.samples, factor, ftype="fir", zero_phase=True)
    return Waveform(out, wave.sample_rate / factor)
