"""Tests for repro.core.bist (the end-to-end 1-bit pipeline)."""

import numpy as np
import pytest

from repro.core.bist import (
    BISTMeasurementConfig,
    BISTResult,
    OneBitNoiseFigureBIST,
)
from repro.core.definitions import y_factor_expected
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.signals.sources import GaussianNoiseSource, SquareSource
from repro.signals.waveform import Waveform

FS = 10000.0


def make_config(**kwargs):
    defaults = dict(
        sample_rate_hz=FS,
        n_samples=100000,
        nperseg=5000,
        reference_frequency_hz=60.0,
        noise_band_hz=(100.0, 4500.0),
        harmonic_kind="odd",
    )
    defaults.update(kwargs)
    return BISTMeasurementConfig(**defaults)


def synth_bitstreams(f_dut=2.0, t_hot=2900.0, t_cold=290.0, n=200000, seed=1):
    """Digitize synthetic DUT-output noise for both states."""
    from repro.signals.random import spawn_rngs

    te = (f_dut - 1.0) * 290.0
    ref = SquareSource(60.0, 0.2).render(n, FS)
    dig = OneBitDigitizer()
    rng_h, rng_c = spawn_rngs(seed, 2)
    sigma_h = np.sqrt(t_hot + te)
    sigma_c = np.sqrt(t_cold + te)
    scale = 1.0 / sigma_c  # normalize cold to 1 V RMS
    hot = GaussianNoiseSource(sigma_h * scale).render(n, FS, rng_h)
    cold = GaussianNoiseSource(sigma_c * scale).render(n, FS, rng_c)
    ref = SquareSource(60.0, 0.2).render(n, FS)
    return dig.digitize(hot, ref), dig.digitize(cold, ref)


class TestConfigValidation:
    def test_valid_config(self):
        cfg = make_config()
        assert cfg.bin_spacing_hz == pytest.approx(2.0)
        assert cfg.duration_s == pytest.approx(10.0)

    def test_rejects_band_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            make_config(noise_band_hz=(100.0, 6000.0))

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            make_config(noise_band_hz=(2000.0, 100.0))

    def test_rejects_reference_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            make_config(reference_frequency_hz=5000.0)

    def test_rejects_nperseg_above_n_samples(self):
        with pytest.raises(ConfigurationError):
            make_config(n_samples=1000, nperseg=5000)

    def test_rejects_zero_sample_rate(self):
        with pytest.raises(ConfigurationError):
            make_config(sample_rate_hz=0.0)

    def test_normalizer_inherits_settings(self):
        cfg = make_config(harmonic_kind="all", subtract_line_floor=False)
        norm = cfg.make_normalizer()
        assert norm.harmonic_kind == "all"
        assert norm.subtract_floor is False
        assert norm.search_halfwidth_hz == pytest.approx(5 * cfg.bin_spacing_hz)


class TestEstimatorValidation:
    def test_rejects_bad_config_type(self):
        with pytest.raises(ConfigurationError):
            OneBitNoiseFigureBIST("config", 2900.0)

    def test_rejects_hot_below_cold(self):
        with pytest.raises(ConfigurationError):
            OneBitNoiseFigureBIST(make_config(), 290.0, 290.0)

    def test_rejects_non_bitstream(self):
        est = OneBitNoiseFigureBIST(make_config(), 2900.0)
        analog = Waveform(np.random.default_rng(0).normal(size=100000), FS)
        bits = Waveform(np.sign(analog.samples - 0.5) * 1.0, FS)
        with pytest.raises(ConfigurationError):
            est.estimate_from_bitstreams(analog, bits)

    def test_rejects_rate_mismatch(self):
        est = OneBitNoiseFigureBIST(make_config(), 2900.0)
        bits = Waveform(np.ones(100000), FS / 2)
        with pytest.raises(ConfigurationError):
            est.estimate_from_bitstreams(bits, bits)


class TestEstimation:
    def test_recovers_known_noise_figure(self):
        bits_hot, bits_cold = synth_bitstreams(f_dut=2.0, n=400000, seed=3)
        est = OneBitNoiseFigureBIST(make_config(n_samples=400000), 2900.0, 290.0)
        result = est.estimate_from_bitstreams(bits_hot, bits_cold)
        assert result.noise_figure_db == pytest.approx(3.01, abs=0.5)

    def test_y_matches_forward_model(self):
        bits_hot, bits_cold = synth_bitstreams(f_dut=4.0, n=400000, seed=4)
        est = OneBitNoiseFigureBIST(make_config(n_samples=400000), 2900.0, 290.0)
        result = est.estimate_from_bitstreams(bits_hot, bits_cold)
        expected_y = y_factor_expected(4.0, 2900.0, 290.0)
        assert result.y == pytest.approx(expected_y, rel=0.06)

    def test_result_fields_consistent(self):
        bits_hot, bits_cold = synth_bitstreams(n=200000, seed=5)
        est = OneBitNoiseFigureBIST(make_config(n_samples=200000), 2900.0, 290.0)
        result = est.estimate_from_bitstreams(bits_hot, bits_cold)
        assert isinstance(result, BISTResult)
        assert result.y == pytest.approx(
            result.band_power_hot / result.band_power_cold
        )
        assert result.noise_figure_db == pytest.approx(
            10 * np.log10(result.noise_factor)
        )
        yfr = result.y_factor_result
        assert yfr.y == result.y

    def test_spectrum_of_uses_config(self):
        bits_hot, _ = synth_bitstreams(n=200000, seed=7)
        est = OneBitNoiseFigureBIST(make_config(n_samples=200000), 2900.0, 290.0)
        spec = est.spectrum_of(bits_hot)
        assert spec.df == pytest.approx(FS / 5000)
