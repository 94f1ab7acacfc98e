"""Tests for repro.core.averaging."""

import numpy as np
import pytest

from repro.core.averaging import RepeatedMeasurement
from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.sources import GaussianNoiseSource, SquareSource

FS = 10000.0
N = 100000


def make_estimator():
    config = BISTMeasurementConfig(
        sample_rate_hz=FS,
        n_samples=N,
        nperseg=5000,
        reference_frequency_hz=60.0,
        noise_band_hz=(100.0, 4500.0),
    )
    return OneBitNoiseFigureBIST(config, 2900.0, 290.0)


def make_acquire(f_dut=2.0):
    te = (f_dut - 1.0) * 290.0
    ref = SquareSource(60.0, 0.2).render(N, FS)
    dig = OneBitDigitizer()

    def acquire(state, rng):
        t = 2900.0 if state == "hot" else 290.0
        sigma = np.sqrt((t + te) / (290.0 + te))
        return dig.digitize(
            GaussianNoiseSource(sigma).render(N, FS, rng), ref
        )

    return acquire


class TestRepeatedMeasurement:
    def test_mean_near_target(self):
        rm = RepeatedMeasurement(make_estimator(), n_repeats=4)
        result = rm.measure(make_acquire(f_dut=2.0), rng=1)
        assert result.nf_mean_db == pytest.approx(3.01, abs=0.8)
        assert result.n_measurements == 4
        assert result.n_failed == 0

    def test_confidence_interval_brackets_mean(self):
        rm = RepeatedMeasurement(make_estimator(), n_repeats=4)
        result = rm.measure(make_acquire(), rng=2)
        low, high = result.confidence_interval_db
        assert low < result.nf_mean_db < high
        assert high - low == pytest.approx(
            2 * result.confidence_halfwidth_db
        )

    def test_reproducible(self):
        rm = RepeatedMeasurement(make_estimator(), n_repeats=3)
        a = rm.measure(make_acquire(), rng=5)
        b = rm.measure(make_acquire(), rng=5)
        assert a.nf_values_db == b.nf_values_db

    def test_failures_propagate_by_default(self):
        rm = RepeatedMeasurement(make_estimator(), n_repeats=2)

        def broken(state, rng):
            raise MeasurementError("no line")

        with pytest.raises(MeasurementError):
            rm.measure(broken, rng=1)

    def test_allow_failures_counts_and_continues(self):
        calls = {"n": 0}
        good = make_acquire()

        def flaky(state, rng):
            calls["n"] += 1
            # Fail the first measurement (it aborts on its first call).
            if calls["n"] <= 1:
                raise MeasurementError("no line")
            return good(state, rng)

        rm = RepeatedMeasurement(
            make_estimator(), n_repeats=4, allow_failures=True
        )
        result = rm.measure(flaky, rng=3)
        assert result.n_failed == 1
        assert result.n_measurements == 3

    def test_too_many_failures_raise(self):
        rm = RepeatedMeasurement(
            make_estimator(), n_repeats=3, allow_failures=True
        )

        def broken(state, rng):
            raise MeasurementError("no line")

        with pytest.raises(MeasurementError):
            rm.measure(broken, rng=1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RepeatedMeasurement("est", 4)
        with pytest.raises(ConfigurationError):
            RepeatedMeasurement(make_estimator(), n_repeats=1)
