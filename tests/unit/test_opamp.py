"""Tests for repro.analog.opamp."""

import numpy as np
import pytest

from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.constants import FOUR_K_T0
from repro.errors import ConfigurationError


class TestDensities:
    def test_white_region_flat(self):
        op = OpAmpNoiseModel("x", 3e-9, 0.4e-12)
        d = op.en_density(np.array([1e3, 1e4, 1e5]))
        assert np.allclose(d, 9e-18)

    def test_one_over_f_doubles_at_corner(self):
        op = OpAmpNoiseModel("x", 3e-9, 0.0, en_corner_hz=100.0)
        assert op.en_density(100.0) == pytest.approx(2 * 9e-18)

    def test_current_noise_corner(self):
        op = OpAmpNoiseModel("x", 0.0, 1e-12, in_corner_hz=140.0)
        assert op.in_density(140.0) == pytest.approx(2e-24)

    def test_low_frequency_clamped(self):
        op = OpAmpNoiseModel("x", 1e-9, 0.0, en_corner_hz=10.0)
        assert np.isfinite(op.en_density(0.0))

    def test_with_name(self):
        op = OPAMP_LIBRARY["OP27"].with_name("renamed")
        assert op.name == "renamed"
        assert op.en_v_per_rthz == OPAMP_LIBRARY["OP27"].en_v_per_rthz


class TestValidation:
    def test_rejects_negative_en(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel("x", -1e-9, 0.0)

    def test_rejects_negative_in(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel("x", 1e-9, -1e-12)

    def test_rejects_negative_corner(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel("x", 1e-9, 0.0, en_corner_hz=-1.0)

    def test_rejects_zero_gbw(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel("x", 1e-9, 0.0, gbw_hz=0.0)


class TestLibrary:
    def test_contains_paper_devices(self):
        assert set(OPAMP_LIBRARY) == {"OP27", "OP07", "TL081", "CA3140"}

    def test_noise_ordering_matches_paper(self):
        # The paper's Table 3 NF ordering follows the en ordering.
        ens = [
            OPAMP_LIBRARY[n].en_v_per_rthz
            for n in ("OP27", "OP07", "TL081", "CA3140")
        ]
        assert ens == sorted(ens)

    def test_op27_is_quiet(self):
        assert OPAMP_LIBRARY["OP27"].en_v_per_rthz <= 3.5e-9


class TestFromExpectedNf:
    def test_achieves_target(self):
        rs = 600.0
        op = OpAmpNoiseModel.from_expected_nf(6.0, rs)
        factor = 1.0 + op.en_v_per_rthz**2 / (FOUR_K_T0 * rs)
        assert 10 * np.log10(factor) == pytest.approx(6.0, abs=1e-9)

    def test_accounts_for_feedback_network(self):
        rs = 600.0
        rp = 99.0
        op = OpAmpNoiseModel.from_expected_nf(6.0, rs, feedback_parallel_ohm=rp)
        total = op.en_v_per_rthz**2 + FOUR_K_T0 * rp
        factor = 1.0 + total / (FOUR_K_T0 * rs)
        assert 10 * np.log10(factor) == pytest.approx(6.0, abs=1e-9)

    def test_accounts_for_current_noise(self):
        rs = 10000.0
        in_a = 1e-12
        op = OpAmpNoiseModel.from_expected_nf(10.0, rs, in_a_per_rthz=in_a)
        total = op.en_v_per_rthz**2 + in_a**2 * rs**2
        factor = 1.0 + total / (FOUR_K_T0 * rs)
        assert 10 * np.log10(factor) == pytest.approx(10.0, abs=1e-9)

    def test_unreachable_target_raises(self):
        # Huge current noise into a big source resistor exceeds 0.1 dB NF.
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel.from_expected_nf(
                0.1, 10000.0, in_a_per_rthz=10e-12
            )

    def test_zero_db_target_needs_noiseless(self):
        op = OpAmpNoiseModel.from_expected_nf(0.0, 600.0)
        assert op.en_v_per_rthz == 0.0

    def test_rejects_negative_nf(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel.from_expected_nf(-1.0, 600.0)

    def test_rejects_zero_source_resistance(self):
        with pytest.raises(ConfigurationError):
            OpAmpNoiseModel.from_expected_nf(3.0, 0.0)

    def test_synthesized_is_white(self):
        op = OpAmpNoiseModel.from_expected_nf(6.0, 600.0)
        assert op.en_corner_hz == 0.0
