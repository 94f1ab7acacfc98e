"""Tests for repro.signals.filters."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signals.filters import (
    bandpass,
    decimate,
    equivalent_noise_bandwidth_single_pole,
    highpass,
    lowpass,
    single_pole_lowpass,
    single_pole_lowpass_power,
    single_pole_magnitude,
)
from repro.signals.sources import GaussianNoiseSource, SineSource
from repro.signals.waveform import Waveform

FS = 10000.0
N = 40000


def sine(freq, n=N):
    return SineSource(freq, 1.0).render(n, FS)


class TestLowpass:
    def test_passes_low_frequency(self):
        out = lowpass(sine(50.0), 1000.0)
        assert out.slice(N // 2, N).rms() == pytest.approx(1 / np.sqrt(2), rel=0.02)

    def test_attenuates_high_frequency(self):
        out = lowpass(sine(4000.0), 500.0)
        assert out.slice(N // 2, N).rms() < 0.01

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            lowpass(sine(100.0), 6000.0)

    def test_rejects_zero_order(self):
        with pytest.raises(ConfigurationError):
            lowpass(sine(100.0), 100.0, order=0)


class TestHighpass:
    def test_attenuates_low_frequency(self):
        out = highpass(sine(20.0), 1000.0)
        assert out.slice(N // 2, N).rms() < 0.01

    def test_passes_high_frequency(self):
        out = highpass(sine(4000.0), 500.0)
        assert out.slice(N // 2, N).rms() == pytest.approx(1 / np.sqrt(2), rel=0.02)


class TestBandpass:
    def test_passes_in_band(self):
        out = bandpass(sine(1000.0), 500.0, 2000.0)
        assert out.slice(N // 2, N).rms() == pytest.approx(1 / np.sqrt(2), rel=0.05)

    def test_rejects_out_of_band(self):
        low = bandpass(sine(50.0), 500.0, 2000.0)
        high = bandpass(sine(4500.0), 500.0, 2000.0)
        assert low.slice(N // 2, N).rms() < 0.02
        assert high.slice(N // 2, N).rms() < 0.02

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            bandpass(sine(100.0), 2000.0, 500.0)


class TestSinglePole:
    def test_minus_3db_at_pole(self):
        out = single_pole_lowpass(sine(1000.0), 1000.0)
        assert out.slice(N // 2, N).rms() == pytest.approx(
            1 / np.sqrt(2) / np.sqrt(2), rel=0.02
        )

    def test_dc_gain_is_unity(self):
        w = Waveform(np.ones(N), FS)
        out = single_pole_lowpass(w, 100.0)
        assert out.samples[-1] == pytest.approx(1.0, rel=1e-3)

    def test_magnitude_function_matches_filter(self):
        mag = single_pole_magnitude(np.array([1000.0]), 1000.0)[0]
        assert mag == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize(
        "fs, pole", [(32768.0, 4e6 / 1156.0), (32768.0, 5940.6), (FS, 100.0)]
    )
    def test_closed_form_power_matches_freqz(self, fs, pole):
        from scipy import signal

        b, a = signal.bilinear(
            [1.0], [1.0 / (2.0 * np.pi * pole), 1.0], fs=fs
        )
        freqs = np.fft.rfftfreq(2**14, d=1.0 / fs)
        _, h = signal.freqz(b, a, worN=freqs, fs=fs)
        power = single_pole_lowpass_power(freqs, fs, pole)
        assert np.max(np.abs(power - np.abs(h) ** 2)) < 1e-12

    def test_closed_form_power_rejects_pole_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            single_pole_lowpass_power(np.array([1.0]), FS, FS / 2.0)

    def test_enbw(self):
        assert equivalent_noise_bandwidth_single_pole(100.0) == pytest.approx(
            np.pi / 2 * 100.0
        )

    def test_noise_power_through_pole_matches_enbw(self, rng):
        # White noise with density S through a single pole keeps power
        # S * ENBW.  The pole must sit far below Nyquist so the truncated
        # (and bilinear-warped) integral matches the analog ENBW.
        density = 1e-4
        src = GaussianNoiseSource.from_density(density, FS)
        w = src.render(400000, FS, rng)
        pole = 50.0
        out = single_pole_lowpass(w, pole)
        expected = density * equivalent_noise_bandwidth_single_pole(pole)
        assert out.mean_square() == pytest.approx(expected, rel=0.05)


class TestDecimate:
    def test_halves_rate(self, white_noise):
        out = decimate(white_noise, 2)
        assert out.sample_rate == white_noise.sample_rate / 2

    def test_factor_one_is_identity(self, white_noise):
        assert decimate(white_noise, 1) is white_noise

    def test_rejects_zero_factor(self, white_noise):
        with pytest.raises(ConfigurationError):
            decimate(white_noise, 0)
