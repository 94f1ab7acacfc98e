"""Tests for per-tap reference support in MultiPointBIST and the
hot-temperature selection rule used for high-NF devices."""

import pytest

from repro.analog.opamp import OPAMP_LIBRARY
from repro.core.bist import BISTMeasurementConfig
from repro.core.multipoint import MultiPointBIST, TestPoint
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.experiments.table3 import _hot_temperature_for
from repro.signals.sources import GaussianNoiseSource, SquareSource

FS = 10000.0
N = 50000


def make_multipoint():
    config = BISTMeasurementConfig(
        sample_rate_hz=FS,
        n_samples=N,
        nperseg=5000,
        reference_frequency_hz=60.0,
        noise_band_hz=(100.0, 4500.0),
    )
    points = [TestPoint(n, OneBitDigitizer()) for n in ("a", "b")]
    return MultiPointBIST(points, config, t_hot_k=2900.0)


class TestPerTapReferences:
    def test_mapping_accepted(self):
        mp = make_multipoint()
        signals = {
            "a": GaussianNoiseSource(1.0).render(N, FS, 1),
            "b": GaussianNoiseSource(5.0).render(N, FS, 2),
        }
        refs = {
            "a": SquareSource(60.0, 0.2).render(N, FS),
            "b": SquareSource(60.0, 1.0).render(N, FS),
        }
        bits = mp.digitize_state(signals, refs, rng=3)
        assert set(bits) == {"a", "b"}

    def test_missing_tap_reference_raises(self):
        mp = make_multipoint()
        signals = {
            "a": GaussianNoiseSource(1.0).render(N, FS, 1),
            "b": GaussianNoiseSource(1.0).render(N, FS, 2),
        }
        refs = {"a": SquareSource(60.0, 0.2).render(N, FS)}
        with pytest.raises(ConfigurationError):
            mp.digitize_state(signals, refs, rng=3)

    def test_shared_waveform_still_works(self):
        mp = make_multipoint()
        signals = {
            "a": GaussianNoiseSource(1.0).render(N, FS, 1),
            "b": GaussianNoiseSource(1.0).render(N, FS, 2),
        }
        shared = SquareSource(60.0, 0.2).render(N, FS)
        bits = mp.digitize_state(signals, shared, rng=4)
        assert set(bits) == {"a", "b"}


class TestHotTemperatureRule:
    def test_quiet_device_keeps_paper_temperature(self):
        assert _hot_temperature_for(OPAMP_LIBRARY["OP27"], 600.0) == 2900.0

    def test_noisy_device_gets_hotter_source(self):
        t_hot = _hot_temperature_for(OPAMP_LIBRARY["CA3140"], 600.0)
        assert t_hot > 2900.0

    def test_rule_targets_usable_y(self):
        from repro.analog.amplifier import NonInvertingAmplifier
        from repro.analog.noise_analysis import noise_budget
        from repro.core.definitions import y_factor_expected

        model = OPAMP_LIBRARY["CA3140"]
        t_hot = _hot_temperature_for(model, 600.0)
        amp = NonInvertingAmplifier(model, 10000.0, 100.0, 600.0)
        f = noise_budget(amp, 500.0, 1500.0).noise_factor
        assert y_factor_expected(f, t_hot, 290.0) >= 1.5 - 0.01
