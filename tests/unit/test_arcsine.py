"""Tests for repro.digitizer.arcsine (paper eq 12)."""

import numpy as np
import pytest
from scipy import signal

from repro.digitizer.arcsine import (
    arcsine_law,
    corrected_psd,
    line_coherent_gain,
    van_vleck_inverse,
)
from repro.digitizer.digitizer import OneBitDigitizer
from repro.dsp.autocorr import normalized_autocorrelation
from repro.errors import ConfigurationError
from repro.signals.sources import GaussianNoiseSource
from repro.signals.waveform import Waveform

FS = 10000.0


def lowpass(wave, cutoff_hz, order=4):
    """Butterworth low-pass (zero state, causal) to band-limit noise."""
    sos = signal.butter(
        order, cutoff_hz, btype="low", fs=wave.sample_rate, output="sos"
    )
    return Waveform(signal.sosfilt(sos, wave.samples), wave.sample_rate)


class TestArcsineLaw:
    def test_endpoints(self):
        assert arcsine_law(1.0) == pytest.approx(1.0)
        assert arcsine_law(-1.0) == pytest.approx(-1.0)
        assert arcsine_law(0.0) == 0.0

    def test_small_argument_linear(self):
        rho = 0.01
        assert arcsine_law(rho) == pytest.approx((2 / np.pi) * rho, rel=1e-3)

    def test_compresses_mid_range(self):
        # arcsine output is below the identity for 0 < rho < 1.
        assert arcsine_law(0.7) < 0.7

    def test_odd_symmetry(self):
        assert arcsine_law(0.5) == pytest.approx(-arcsine_law(-0.5))

    def test_array_input(self):
        out = arcsine_law(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            arcsine_law(1.5)

    def test_tolerates_round_off(self):
        assert arcsine_law(1.0 + 1e-12) == pytest.approx(1.0)


class TestVanVleckInverse:
    def test_inverse_of_forward(self):
        rho = np.linspace(-0.99, 0.99, 41)
        assert np.allclose(van_vleck_inverse(arcsine_law(rho)), rho, atol=1e-12)

    def test_forward_of_inverse(self):
        r = np.linspace(-0.9, 0.9, 19)
        assert np.allclose(arcsine_law(van_vleck_inverse(r)), r, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            van_vleck_inverse(-1.2)


class TestEmpiricalArcsine:
    def test_bitstream_autocorrelation_follows_law(self, rng):
        # Band-limited Gaussian noise has nonzero rho at small lags; the
        # 1-bit stream's autocorrelation must be (2/pi)*arcsin(rho).
        noise = GaussianNoiseSource(1.0).render(400000, FS, rng)
        shaped = lowpass(noise, 1000.0)
        bits = OneBitDigitizer().digitize(
            shaped, Waveform(np.zeros(len(shaped)), FS)
        )
        rho_analog = normalized_autocorrelation(shaped, 10)
        rho_bits = normalized_autocorrelation(bits, 10, remove_mean=False)
        assert np.allclose(rho_bits, arcsine_law(rho_analog), atol=0.02)

    def test_line_coherent_gain_value(self):
        assert line_coherent_gain(2.0) == pytest.approx(np.sqrt(2 / np.pi) / 2.0)

    def test_line_coherent_gain_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            line_coherent_gain(0.0)

    def test_empirical_line_gain(self, rng):
        # A small sine in noise keeps amplitude sqrt(2/pi)*A/sigma through
        # the limiter.
        from repro.dsp.psd import welch
        from repro.signals.sources import SineSource

        sigma, amp = 1.0, 0.15
        n = 500000
        noise = GaussianNoiseSource(sigma).render(n, FS, rng)
        sine = SineSource(1000.0, amp).render(n, FS)
        bits = OneBitDigitizer().digitize(noise + sine, Waveform(np.zeros(n), FS))
        spec = welch(bits, nperseg=5000)
        _, p_line = spec.line_power(1000.0, 20.0)
        measured_amp = np.sqrt(2 * p_line)
        expected_amp = np.sqrt(2 / np.pi) * amp / sigma
        assert measured_amp == pytest.approx(expected_amp, rel=0.05)


class TestCorrectedPsd:
    def test_recovers_bandlimited_shape(self, rng):
        noise = GaussianNoiseSource(1.0).render(400000, FS, rng)
        shaped = lowpass(noise, 1500.0, order=6)
        bits = OneBitDigitizer().digitize(
            shaped, Waveform(np.zeros(len(shaped)), FS)
        )
        spec = corrected_psd(bits, max_lag=500)
        in_band = spec.band_mean_density(100.0, 1000.0)
        out_band = spec.band_mean_density(3000.0, 4500.0)
        assert in_band > 5 * out_band

    def test_total_power_normalized(self, rng):
        noise = GaussianNoiseSource(1.0).render(100000, FS, rng)
        shaped = lowpass(noise, 2000.0)
        bits = OneBitDigitizer().digitize(
            shaped, Waveform(np.zeros(len(shaped)), FS)
        )
        spec = corrected_psd(bits, max_lag=256)
        assert spec.total_power() == pytest.approx(1.0, rel=0.1)

    def test_max_lag_validation(self, rng):
        bits = OneBitDigitizer().digitize(
            GaussianNoiseSource(1.0).render(100, FS, rng),
            Waveform(np.zeros(100), FS),
        )
        with pytest.raises(ConfigurationError):
            corrected_psd(bits, max_lag=1)
        with pytest.raises(ConfigurationError):
            corrected_psd(bits, max_lag=100)
