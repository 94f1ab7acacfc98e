"""Statistical validation of the 1-bit estimator: bias and variance.

These are slower tests (many repeated measurements) that pin down the
estimator's statistical behaviour — the quantities EXPERIMENTS.md quotes.
"""

import numpy as np
import pytest

from repro import MeasurementEngine
from repro.analog.opamp import OpAmpNoiseModel
from repro.core.averaging import RepeatedMeasurement
from repro.instruments.testbench import build_prototype_testbench


@pytest.fixture(scope="module")
def nf6_population():
    """20 independent measurements of a 6 dB DUT at 2^17 samples."""
    model = OpAmpNoiseModel.from_expected_nf(
        6.0, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
    )
    bench = build_prototype_testbench(model, n_samples=2**17)
    estimator = bench.make_estimator()
    engine = MeasurementEngine()
    values = [
        engine.measure(bench, estimator, rng=3000 + s).noise_figure_db
        for s in range(20)
    ]
    return np.asarray(values), bench.expected_nf_db(500.0, 1500.0)


class TestEstimatorStatistics:
    def test_mean_unbiased_within_sampling_error(self, nf6_population):
        values, expected = nf6_population
        sem = np.std(values, ddof=1) / np.sqrt(values.size)
        assert abs(np.mean(values) - expected) < 3.5 * sem + 0.1

    def test_scatter_within_documented_band(self, nf6_population):
        values, _ = nf6_population
        std = np.std(values, ddof=1)
        # EXPERIMENTS.md documents ~0.5-0.7 dB at 2^17; allow headroom.
        assert 0.1 < std < 1.2

    def test_averaging_tightens_the_estimate(self, nf6_population):
        values, expected = nf6_population
        # Mean of 20 repeats must beat the typical single measurement.
        mean_error = abs(np.mean(values) - expected)
        typical_single = np.median(np.abs(values - expected))
        assert mean_error <= typical_single + 0.05

    def test_repeated_measurement_ci_covers_expected(self):
        model = OpAmpNoiseModel.from_expected_nf(
            6.0, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
        )
        bench = build_prototype_testbench(model, n_samples=2**17)
        rm = RepeatedMeasurement(bench.make_estimator(), n_repeats=6)
        result = rm.measure(bench, rng=77)
        low, high = result.confidence_interval_db
        expected = bench.expected_nf_db(500.0, 1500.0)
        # A 95 % CI from 6 repeats should usually cover; allow a small
        # margin for the normal-theory approximation.
        assert low - 0.3 <= expected <= high + 0.3
