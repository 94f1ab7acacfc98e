"""Single-pole filters of the analog chain.

The analog chain in the paper band-limits the noise before the comparator
(the post-amplifier pole sits near 3.5 kHz).  Compat synthesis filters
each record with ``scipy.signal`` (:func:`single_pole_lowpass_array`);
philox synthesis shapes spectra with the closed-form response
(:func:`single_pole_lowpass_power`) and never filters a record.

``scipy.signal`` is imported at call time inside
:func:`single_pole_lowpass_array`, the program's only user of it, not
at module level: the import costs about 1.5 s and 68 MB per process
on a 2-CPU host, and a philox process never needs it.  A compat
process engine imports it once before its worker pool forks (see
:attr:`~repro.engine.engine.MeasurementEngine.worker_pool`), so its
workers inherit the module instead of each importing it again.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.signals.waveform import Waveform


def _check_pole(pole_hz: float, sample_rate: float) -> None:
    if pole_hz <= 0:
        raise ConfigurationError(f"pole must be > 0 Hz, got {pole_hz}")
    if pole_hz >= sample_rate / 2.0:
        raise ConfigurationError(
            f"pole {pole_hz} Hz must be below Nyquist ({sample_rate / 2.0} Hz)"
        )


def single_pole_lowpass_array(
    samples: np.ndarray, sample_rate: float, pole_hz: float
) -> np.ndarray:
    """Single-pole low-pass applied along the last axis of an array.

    The batch form of :func:`single_pole_lowpass`: each row is filtered
    independently (and bit-identically to the 1-D call), so stacked
    records go through ``scipy`` in one pass.
    """
    from scipy import signal

    _check_pole(pole_hz, sample_rate)
    b, a = signal.bilinear(
        [1.0], [1.0 / (2.0 * np.pi * pole_hz), 1.0], fs=sample_rate
    )
    return signal.lfilter(b, a, samples, axis=-1)


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
    _check_pole(pole_hz, sample_rate)
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
