"""Tests for repro.core.frequency_response (the BIST cell's other use)."""

import numpy as np
import pytest

from repro.core.frequency_response import FrequencyResponseBIST
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.filters import single_pole_lowpass

FS = 32768.0


def make_bist(freqs=(500.0, 1000.0, 2000.0, 4000.0, 8000.0)):
    return FrequencyResponseBIST(
        frequencies_hz=freqs,
        stimulus_amplitude=0.2,
        dither_rms=1.0,
        n_samples=2**17,
        sample_rate_hz=FS,
        nperseg=8192,
    )


class TestValidation:
    def test_needs_frequencies(self):
        with pytest.raises(ConfigurationError):
            FrequencyResponseBIST([], 0.1, 1.0, 1000, FS, 100)

    def test_rejects_frequency_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            FrequencyResponseBIST([20000.0], 0.1, 1.0, 10000, FS, 1000)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ConfigurationError):
            FrequencyResponseBIST([100.0], 0.0, 1.0, 10000, FS, 1000)

    def test_rejects_zero_dither(self):
        with pytest.raises(ConfigurationError):
            FrequencyResponseBIST([100.0], 0.1, 0.0, 10000, FS, 1000)

    def test_rejects_short_record(self):
        with pytest.raises(ConfigurationError):
            FrequencyResponseBIST([100.0], 0.1, 1.0, 100, FS, 1000)


class TestMeasure:
    def test_flat_dut_is_flat(self):
        bist = make_bist((500.0, 1000.0, 2000.0))

        def unity(wave, rng):
            return wave

        result = bist.measure(unity, rng=1)
        # Line-power estimation noise at 31 Welch segments leaves a few
        # tenths of a dB of scatter.
        assert np.all(np.abs(result.magnitudes_db) < 0.8)

    def test_single_pole_shape_recovered(self):
        pole = 2000.0
        bist = make_bist((250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0))

        def dut(wave, rng):
            return single_pole_lowpass(wave, pole)

        result = bist.measure(dut, rng=2)
        # At the pole the response must be ~-3 dB relative to the lowest
        # frequency.
        mags = dict(zip(result.frequencies_hz, result.magnitudes_db))
        assert mags[2000.0] - mags[250.0] == pytest.approx(-3.0, abs=0.7)
        # Monotonically decreasing overall.
        assert mags[8000.0] < mags[2000.0] < mags[500.0] + 0.5

    def test_minus_3db_frequency_interpolation(self):
        pole = 2000.0
        bist = make_bist((250.0, 1000.0, 2000.0, 4000.0, 8000.0))

        def dut(wave, rng):
            return single_pole_lowpass(wave, pole)

        result = bist.measure(dut, rng=3)
        assert result.minus_3db_frequency() == pytest.approx(pole, rel=0.35)

    def test_minus_3db_raises_when_flat(self):
        bist = make_bist((500.0, 1000.0))
        result = bist.measure(lambda w, r: w, rng=4)
        with pytest.raises(MeasurementError):
            result.minus_3db_frequency()

    def test_gain_scaling_does_not_change_shape(self):
        bist = make_bist((500.0, 2000.0))
        flat = bist.measure(lambda w, r: w, rng=5)
        scaled = bist.measure(lambda w, r: w.scaled(3.0), rng=5)
        assert flat.magnitudes_db == pytest.approx(scaled.magnitudes_db, abs=0.3)
