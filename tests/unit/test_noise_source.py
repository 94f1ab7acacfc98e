"""Tests for repro.analog.noise_source."""

import pytest

from repro.analog.noise_source import CalibratedNoiseSource
from repro.constants import BOLTZMANN
from repro.errors import ConfigurationError


class TestCalibratedNoiseSource:
    def test_densities(self):
        src = CalibratedNoiseSource(600.0, 2900.0, 290.0)
        assert src.density("hot") == pytest.approx(
            4 * BOLTZMANN * 2900.0 * 600.0
        )
        assert src.density("cold") == pytest.approx(
            4 * BOLTZMANN * 290.0 * 600.0
        )

    def test_y_factor_true(self):
        src = CalibratedNoiseSource(600.0, 2900.0, 290.0)
        assert src.y_factor_true == pytest.approx(10.0)

    def test_rendered_power_ratio(self, rng):
        src = CalibratedNoiseSource(1e9, 2900.0, 290.0)
        hot = src.render("hot", 50000, 10000.0, rng)
        cold = src.render("cold", 50000, 10000.0, rng)
        assert hot.mean_square() / cold.mean_square() == pytest.approx(
            10.0, rel=0.05
        )

    def test_invalid_state_raises(self):
        src = CalibratedNoiseSource(600.0, 2900.0)
        with pytest.raises(ConfigurationError):
            src.density("warm")

    def test_hot_must_exceed_cold(self):
        with pytest.raises(ConfigurationError):
            CalibratedNoiseSource(600.0, 290.0, 290.0)

    def test_rejects_zero_resistance(self):
        with pytest.raises(ConfigurationError):
            CalibratedNoiseSource(0.0, 2900.0)


class TestHotLevelError:
    def test_actual_vs_calibrated(self):
        src = CalibratedNoiseSource(600.0, 2900.0, hot_level_error=0.05)
        assert src.calibrated_temperature("hot") == 2900.0
        assert src.actual_temperature("hot") == pytest.approx(3045.0)

    def test_cold_unaffected(self):
        src = CalibratedNoiseSource(600.0, 2900.0, hot_level_error=0.05)
        assert src.actual_temperature("cold") == src.calibrated_temperature("cold")

    def test_density_uses_actual(self):
        biased = CalibratedNoiseSource(600.0, 2900.0, hot_level_error=0.10)
        clean = CalibratedNoiseSource(600.0, 2900.0)
        assert biased.density("hot") == pytest.approx(1.1 * clean.density("hot"))

    def test_rejects_error_below_minus_one(self):
        with pytest.raises(ConfigurationError):
            CalibratedNoiseSource(600.0, 2900.0, hot_level_error=-1.5)


class TestFromEnr:
    def test_enr_954_gives_2900k(self):
        src = CalibratedNoiseSource.from_enr_db(600.0, 9.542)
        assert src.t_hot_k == pytest.approx(2900.0, rel=1e-3)
