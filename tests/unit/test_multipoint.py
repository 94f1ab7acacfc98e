"""Tests for repro.core.multipoint (simultaneous observability)."""

import numpy as np
import pytest

from repro.core.bist import BISTMeasurementConfig
from repro.core.multipoint import MultiPointBIST, TestPoint
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.signals.sources import GaussianNoiseSource, SquareSource
from repro.signals.random import spawn_rngs

FS = 10000.0
N = 200000


def make_config():
    return BISTMeasurementConfig(
        sample_rate_hz=FS,
        n_samples=N,
        nperseg=5000,
        reference_frequency_hz=60.0,
        noise_band_hz=(100.0, 4500.0),
        harmonic_kind="odd",
    )


def make_multipoint(names=("a", "b")):
    points = [TestPoint(name, OneBitDigitizer()) for name in names]
    return MultiPointBIST(points, make_config(), t_hot_k=2900.0, t_cold_k=290.0)


def state_signals(state, rng, f_by_tap):
    """Synthetic tap waveforms: each tap sees its own DUT noise factor."""
    rngs = spawn_rngs(rng, len(f_by_tap))
    out = {}
    for (name, f_dut), child in zip(f_by_tap.items(), rngs):
        te = (f_dut - 1.0) * 290.0
        t = 2900.0 if state == "hot" else 290.0
        sigma = np.sqrt((t + te) / (290.0 + te))
        out[name] = GaussianNoiseSource(sigma).render(N, FS, child)
    return out


class TestValidation:
    def test_needs_points(self):
        with pytest.raises(ConfigurationError):
            MultiPointBIST([], make_config(), 2900.0)

    def test_rejects_duplicate_names(self):
        points = [
            TestPoint("x", OneBitDigitizer()),
            TestPoint("x", OneBitDigitizer()),
        ]
        with pytest.raises(ConfigurationError):
            MultiPointBIST(points, make_config(), 2900.0)

    def test_testpoint_needs_name(self):
        with pytest.raises(ConfigurationError):
            TestPoint("", OneBitDigitizer())

    def test_testpoint_needs_digitizer(self):
        with pytest.raises(ConfigurationError):
            TestPoint("x", "not a digitizer")

    def test_names_property(self):
        mp = make_multipoint(("dut", "output"))
        assert mp.names == ["dut", "output"]


class TestDigitizeState:
    def test_produces_bitstream_per_tap(self):
        mp = make_multipoint()
        signals = state_signals("hot", 1, {"a": 2.0, "b": 4.0})
        ref = SquareSource(60.0, 0.2).render(N, FS)
        bits = mp.digitize_state(signals, ref, rng=2)
        assert set(bits) == {"a", "b"}
        for wave in bits.values():
            assert set(np.unique(wave.samples)) <= {-1.0, 1.0}

    def test_missing_tap_raises(self):
        mp = make_multipoint()
        ref = SquareSource(60.0, 0.2).render(N, FS)
        with pytest.raises(ConfigurationError):
            mp.digitize_state({"a": ref}, ref, rng=1)


class TestMeasure:
    def test_simultaneous_two_tap_measurement(self):
        mp = make_multipoint()
        ref = SquareSource(60.0, 0.2).render(N, FS)
        f_by_tap = {"a": 2.0, "b": 4.0}

        results = mp.measure(
            lambda state, rng: state_signals(state, rng, f_by_tap),
            ref,
            rng=7,
        )
        assert results["a"].noise_figure_db == pytest.approx(3.01, abs=0.7)
        assert results["b"].noise_figure_db == pytest.approx(6.02, abs=0.7)

    def test_estimate_requires_all_taps(self):
        mp = make_multipoint()
        with pytest.raises(ConfigurationError):
            mp.estimate({}, {})
