"""Tests for repro.signals.thermal."""

import numpy as np
import pytest

from repro.constants import BOLTZMANN
from repro.errors import ConfigurationError
from repro.signals.thermal import (
    available_noise_power,
    enr_db_from_temperatures,
    excess_noise_ratio,
    johnson_noise_density,
    johnson_noise_rms,
    temperature_from_enr_db,
    temperature_from_power,
)


class TestAvailablePower:
    def test_ktb_at_290(self):
        p = available_noise_power(290.0, 1.0)
        assert p == pytest.approx(BOLTZMANN * 290.0)

    def test_scales_with_bandwidth(self):
        assert available_noise_power(100.0, 2e6) == pytest.approx(
            2 * available_noise_power(100.0, 1e6)
        )

    def test_rejects_negative_temperature(self):
        with pytest.raises(ConfigurationError):
            available_noise_power(-1.0, 1.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigurationError):
            available_noise_power(290.0, 0.0)

    def test_roundtrip_with_temperature_from_power(self):
        p = available_noise_power(1234.0, 5e3)
        assert temperature_from_power(p, 5e3) == pytest.approx(1234.0)


class TestJohnson:
    def test_density_1k_at_290(self):
        # 4kTR for 1 kohm at 290 K is ~1.6e-17 V^2/Hz (~4 nV/rtHz).
        d = johnson_noise_density(1000.0)
        assert d == pytest.approx(4 * BOLTZMANN * 290.0 * 1000.0)
        assert np.sqrt(d) == pytest.approx(4.0e-9, rel=0.02)

    def test_density_zero_resistance(self):
        assert johnson_noise_density(0.0) == 0.0

    def test_rms_scaling(self):
        rms1 = johnson_noise_rms(1000.0, 1e4)
        rms4 = johnson_noise_rms(4000.0, 1e4)
        assert rms4 == pytest.approx(2 * rms1)

    def test_rejects_negative_resistance(self):
        with pytest.raises(ConfigurationError):
            johnson_noise_density(-1.0)


class TestEnr:
    def test_excess_noise_ratio_linear(self):
        # Th = 2900 K over T0 = 290 K gives ENR = 9 (9.54 dB).
        assert excess_noise_ratio(2900.0) == pytest.approx(9.0)

    def test_enr_db(self):
        assert enr_db_from_temperatures(2900.0) == pytest.approx(9.542, abs=1e-3)

    def test_enr_roundtrip(self):
        th = temperature_from_enr_db(enr_db_from_temperatures(5000.0))
        assert th == pytest.approx(5000.0)

    def test_hot_must_exceed_reference(self):
        with pytest.raises(ConfigurationError):
            excess_noise_ratio(290.0)
