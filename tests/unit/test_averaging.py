"""Tests for repro.core.averaging."""

import pytest

from repro.core.averaging import RepeatedMeasurement
from repro.core.bist import OneBitNoiseFigureBIST
from repro.errors import ConfigurationError, MeasurementError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation


def make_sim(dut_nf_db=3.0):
    return MatlabSimulation(
        MatlabSimConfig(
            t_hot_k=2900.0,
            t_cold_k=290.0,
            dut_nf_db=dut_nf_db,
            n_samples=100_000,
            nperseg=5000,
        )
    )


class FailingEstimator(OneBitNoiseFigureBIST):
    """Raises :class:`MeasurementError` (a lost reference line) on the
    chosen repeats, counted in estimation order."""

    def __init__(self, sim, fail_on=()):
        c = sim.config
        super().__init__(sim.make_config(), c.t_hot_k, c.t_cold_k, c.t0_k)
        self.fail_on = set(fail_on)
        self.calls = 0

    def estimate_from_spectra(self, spec_hot, spec_cold):
        repeat = self.calls
        self.calls += 1
        if repeat in self.fail_on:
            raise MeasurementError("no line")
        return super().estimate_from_spectra(spec_hot, spec_cold)


class TestRepeatedMeasurement:
    def test_mean_near_target(self):
        sim = make_sim(dut_nf_db=3.0)
        rm = RepeatedMeasurement(sim.make_estimator(), n_repeats=4)
        result = rm.measure(sim, rng=1)
        assert result.nf_mean_db == pytest.approx(3.0, abs=0.8)
        assert result.n_measurements == 4
        assert result.n_failed == 0

    def test_confidence_interval_brackets_mean(self):
        sim = make_sim()
        rm = RepeatedMeasurement(sim.make_estimator(), n_repeats=4)
        result = rm.measure(sim, rng=2)
        low, high = result.confidence_interval_db
        assert low < result.nf_mean_db < high
        assert high - low == pytest.approx(
            2 * result.confidence_halfwidth_db
        )

    def test_reproducible(self):
        sim = make_sim()
        rm = RepeatedMeasurement(sim.make_estimator(), n_repeats=3)
        a = rm.measure(sim, rng=5)
        b = rm.measure(sim, rng=5)
        assert a.nf_values_db == b.nf_values_db

    def test_failures_propagate_by_default(self):
        sim = make_sim()
        rm = RepeatedMeasurement(FailingEstimator(sim, {0}), n_repeats=2)
        with pytest.raises(MeasurementError):
            rm.measure(sim, rng=1)

    def test_allow_failures_counts_and_continues(self):
        sim = make_sim()
        rm = RepeatedMeasurement(
            FailingEstimator(sim, {0}), n_repeats=4, allow_failures=True
        )
        result = rm.measure(sim, rng=3)
        assert result.n_failed == 1
        assert result.n_measurements == 3

    def test_too_many_failures_raise(self):
        sim = make_sim()
        rm = RepeatedMeasurement(
            FailingEstimator(sim, {0, 1, 2}), n_repeats=3, allow_failures=True
        )
        with pytest.raises(MeasurementError):
            rm.measure(sim, rng=1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RepeatedMeasurement("est", 4)
        with pytest.raises(ConfigurationError):
            RepeatedMeasurement(make_sim().make_estimator(), n_repeats=1)
