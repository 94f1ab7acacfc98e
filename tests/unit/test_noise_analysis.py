"""Tests for repro.analog.noise_analysis."""

import pytest

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.noise_analysis import (
    cascade_noise_factor,
    expected_noise_figure_db,
    noise_budget,
)
from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.errors import ConfigurationError


def make_amp(opamp, rs=600.0):
    return NonInvertingAmplifier(opamp, 10000.0, 100.0, rs)


class TestNoiseBudget:
    def test_contributions_sum_to_amplifier_total(self):
        budget = noise_budget(make_amp(OPAMP_LIBRARY["OP27"]), 500.0, 1500.0)
        assert sum(budget.contributions.values()) == pytest.approx(
            budget.amplifier_v2
        )

    def test_noise_factor_definition(self):
        budget = noise_budget(make_amp(OPAMP_LIBRARY["OP27"]), 500.0, 1500.0)
        assert budget.noise_factor == pytest.approx(
            1.0 + budget.amplifier_v2 / budget.source_v2
        )

    def test_en_dominates_for_quiet_network(self):
        op = OpAmpNoiseModel("big_en", 100e-9, 0.0)
        budget = noise_budget(make_amp(op), 500.0, 1500.0)
        assert budget.dominant_contributor() == "opamp_voltage_noise"

    def test_current_noise_dominates_large_rs(self):
        op = OpAmpNoiseModel("big_in", 1e-9, 10e-12)
        budget = noise_budget(make_amp(op, rs=100000.0), 500.0, 1500.0)
        assert budget.dominant_contributor() == "opamp_current_noise_rs"

    def test_flat_device_matches_spot_factor(self):
        op = OpAmpNoiseModel("flat", 10e-9, 0.0, gbw_hz=1e9)
        amp = make_amp(op)
        budget = noise_budget(amp, 500.0, 1500.0)
        assert budget.noise_factor == pytest.approx(
            amp.spot_noise_factor(1000.0), rel=1e-6
        )

    def test_one_over_f_raises_low_band_nf(self):
        op = OpAmpNoiseModel("flicker", 10e-9, 0.0, en_corner_hz=1000.0)
        low = expected_noise_figure_db(make_amp(op), 10.0, 100.0)
        high = expected_noise_figure_db(make_amp(op), 5000.0, 10000.0)
        assert low > high + 1.0

    def test_hot_source_lowers_relative_factor(self):
        amp = make_amp(OPAMP_LIBRARY["CA3140"])
        hot = noise_budget(amp, 500.0, 1500.0, source_temperature_k=2900.0)
        cold = noise_budget(amp, 500.0, 1500.0, source_temperature_k=290.0)
        assert hot.noise_factor < cold.noise_factor

    def test_invalid_band_raises(self):
        with pytest.raises(ConfigurationError):
            noise_budget(make_amp(OPAMP_LIBRARY["OP27"]), 1500.0, 500.0)

    def test_too_few_points_raises(self):
        with pytest.raises(ConfigurationError):
            noise_budget(
                make_amp(OPAMP_LIBRARY["OP27"]), 500.0, 1500.0, n_points=4
            )


class TestExpectedNf:
    def test_paper_device_ordering(self):
        values = [
            expected_noise_figure_db(make_amp(OPAMP_LIBRARY[name]), 500.0, 1500.0)
            for name in ("OP27", "OP07", "TL081", "CA3140")
        ]
        assert values == sorted(values)

    def test_synthesized_opamp_hits_target(self):
        op = OpAmpNoiseModel.from_expected_nf(
            6.5, 600.0, feedback_parallel_ohm=10000 * 100 / 10100, gbw_hz=1e9
        )
        nf = expected_noise_figure_db(make_amp(op), 500.0, 1500.0)
        assert nf == pytest.approx(6.5, abs=0.02)


class TestCascade:
    def test_post_amp_negligible_after_gain(self):
        dut = make_amp(OPAMP_LIBRARY["OP27"])
        post = NonInvertingAmplifier(
            OPAMP_LIBRARY["OP27"], 115500.0, 100.0, 100.0
        )
        chain = cascade_noise_factor(dut, post, 500.0, 1500.0)
        alone = noise_budget(dut, 500.0, 1500.0).noise_factor
        assert chain == pytest.approx(alone, rel=0.01)

    def test_cascade_always_at_least_first_stage(self):
        dut = make_amp(OPAMP_LIBRARY["OP07"])
        post = NonInvertingAmplifier(
            OPAMP_LIBRARY["CA3140"], 115500.0, 100.0, 100.0
        )
        chain = cascade_noise_factor(dut, post, 500.0, 1500.0)
        assert chain >= noise_budget(dut, 500.0, 1500.0).noise_factor
