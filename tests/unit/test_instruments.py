"""Tests for repro.instruments (generator, scope, testbench)."""

import numpy as np
import pytest

from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.errors import ConfigurationError
from repro.instruments.function_generator import FunctionGenerator
from repro.instruments.scope import LogicScope
from repro.instruments.testbench import (
    PrototypeTestbench,
    build_prototype_testbench,
)
from repro.signals.random import spawn_rngs
from repro.signals.waveform import Waveform

FS = 32768.0


class TestFunctionGenerator:
    def test_sine_vpp(self):
        gen = FunctionGenerator("sine", 1000.0, vpp=2.0)
        w = gen.output(32768, FS)
        assert w.peak() == pytest.approx(1.0, rel=1e-3)

    def test_square_levels(self):
        gen = FunctionGenerator("square", 1000.0, vpp=4.0)
        w = gen.output(1000, FS)
        assert set(np.unique(w.samples)) == {-2.0, 2.0}

    def test_noise_rms_from_vpp(self, rng):
        gen = FunctionGenerator("noise", vpp=6.0)
        w = gen.output(100000, FS, rng)
        assert w.std() == pytest.approx(1.0, rel=0.03)

    def test_offset(self):
        gen = FunctionGenerator("sine", 1000.0, vpp=2.0, offset_v=1.5)
        w = gen.output(32768, FS)
        assert w.mean() == pytest.approx(1.5, abs=1e-3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FunctionGenerator("triangle", 100.0)

    def test_sine_needs_frequency(self):
        with pytest.raises(ConfigurationError):
            FunctionGenerator("sine", 0.0)

    def test_noise_ignores_frequency(self):
        gen = FunctionGenerator("noise", vpp=1.0)
        assert gen.noise_rms == pytest.approx(1.0 / 6.0)


class TestLogicScope:
    def test_passthrough_within_limit(self):
        scope = LogicScope(100)
        w = Waveform(np.ones(50), FS)
        out = scope.capture(w)
        assert out == w
        assert scope.last_truncated is False

    def test_truncates_long_records(self):
        scope = LogicScope(100)
        w = Waveform(np.arange(250, dtype=float), FS)
        out = scope.capture(w)
        assert len(out) == 100
        assert scope.last_truncated is True
        assert out.samples[-1] == 99.0

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            LogicScope(0)


class TestBuildPrototype:
    def test_default_build(self):
        bench = build_prototype_testbench(n_samples=2**14)
        assert bench.dut.gain == pytest.approx(101.0)
        assert bench.post_amplifier.gain == pytest.approx(1156.0)
        assert bench.reference.frequency_hz == 3000.0
        assert bench.noise_source.t_hot_k == 2900.0

    def test_reference_inside_recommended_window(self):
        bench = build_prototype_testbench(n_samples=2**14)
        assert 0.1 <= bench.reference_level_ratio("cold") <= 0.4
        assert 0.05 <= bench.reference_level_ratio("hot") <= 0.4

    def test_all_library_opamps_accepted(self):
        for name in OPAMP_LIBRARY:
            bench = build_prototype_testbench(name, n_samples=2**14)
            assert bench.dut.opamp.name == name

    def test_custom_opamp_model(self):
        model = OpAmpNoiseModel("custom", 5e-9, 0.0, gbw_hz=8e6)
        bench = build_prototype_testbench(model, n_samples=2**14)
        assert bench.dut.opamp.name == "custom"

    def test_unknown_opamp_raises(self):
        with pytest.raises(ConfigurationError):
            build_prototype_testbench("LM741", n_samples=2**14)

    def test_invalid_reference_ratio_raises(self):
        with pytest.raises(ConfigurationError):
            build_prototype_testbench(reference_ratio=1.5, n_samples=2**14)


class TestTestbenchBehaviour:
    def test_hot_output_larger_than_cold(self):
        bench = build_prototype_testbench(n_samples=2**15)
        hot = bench.analog_output("hot", rng=1)
        cold = bench.analog_output("cold", rng=2)
        assert hot.rms() > 1.5 * cold.rms()

    def test_predicted_rms_matches_simulation(self):
        bench = build_prototype_testbench(n_samples=2**17)
        for state in ("hot", "cold"):
            sim_rms = bench.analog_output(state, rng=3).rms()
            assert bench.predicted_output_rms(state) == pytest.approx(
                sim_rms, rel=0.1
            )

    def test_acquire_bitstream_is_pm1(self):
        bench = build_prototype_testbench(n_samples=2**14)
        bits = bench.acquire_bitstream("cold", rng=4)
        assert set(np.unique(bits.samples)) <= {-1.0, 1.0}
        assert len(bits) == 2**14

    def test_expected_nf_reasonable_for_op27(self):
        bench = build_prototype_testbench("OP27", n_samples=2**14)
        nf = bench.expected_nf_db(500.0, 1500.0)
        assert 2.0 < nf < 5.0

    def test_source_resistance_mismatch_rejected(self):
        from repro.analog.amplifier import NonInvertingAmplifier
        from repro.analog.noise_source import CalibratedNoiseSource
        from repro.digitizer.digitizer import OneBitDigitizer
        from repro.signals.sources import SineSource

        src = CalibratedNoiseSource(600.0, 2900.0)
        dut = NonInvertingAmplifier(
            OPAMP_LIBRARY["OP27"], 10000.0, 100.0, 1000.0
        )
        post = NonInvertingAmplifier(
            OPAMP_LIBRARY["OP27"], 115500.0, 100.0, 100.0
        )
        with pytest.raises(ConfigurationError):
            PrototypeTestbench(
                src, dut, post, SineSource(3000.0, 0.01), OneBitDigitizer(),
                FS, 2**14,
            )

    def test_make_estimator_calibration(self):
        bench = build_prototype_testbench(n_samples=2**14)
        est = bench.make_estimator()
        assert est.t_hot_k == 2900.0
        assert est.t_cold_k == 290.0
        assert est.config.reference_frequency_hz == 3000.0


class TestSpectralSynthesis:
    """The philox analog chain: one shaped spectrum per record."""

    def _philox(self, bench, states=("hot", "cold"), seed=7):
        return bench.acquire_analog_batch(
            list(states), spawn_rngs(seed, len(states)), rng_mode="philox"
        )[0]

    def test_post_gain_drift_scales_psd_and_records(self):
        bench = build_prototype_testbench("OP07", n_samples=2**12)
        drifted = build_prototype_testbench("OP07", n_samples=2**12)
        drifted.post_amplifier = drifted.post_amplifier.with_gain_drift(1.3)
        assert np.allclose(
            drifted.analog_psd(["hot", "cold"]),
            1.3**2 * bench.analog_psd(["hot", "cold"]),
            rtol=1e-12,
            atol=0.0,
        )
        # Same seed: the same realization, 1.3x the amplitude.
        records, nominal = self._philox(drifted), self._philox(bench)
        assert np.max(np.abs(records - 1.3 * nominal)) < (
            1e-12 * np.abs(records).max()
        )

    def test_hot_level_error_raises_hot_psd_only(self):
        bench = build_prototype_testbench(n_samples=2**12)
        hotter = build_prototype_testbench(n_samples=2**12, hot_level_error=0.1)
        (hot, cold), (nominal_hot, nominal_cold) = (
            hotter.analog_psd(["hot", "cold"]),
            bench.analog_psd(["hot", "cold"]),
        )
        assert np.all(hot > nominal_hot)
        assert np.array_equal(cold, nominal_cold)

    def test_odd_record_length(self):
        bench = build_prototype_testbench(n_samples=2**12 + 1)
        assert bench.analog_psd(["hot"]).shape == (1, 2**11 + 1)
        analog = self._philox(bench)
        assert analog.shape == (2, 2**12 + 1)
        assert np.all(np.isfinite(analog))

    def test_unknown_state_raises(self):
        bench = build_prototype_testbench(n_samples=2**12)
        with pytest.raises(ConfigurationError):
            self._philox(bench, states=("hot", "lukewarm"))
        with pytest.raises(ConfigurationError):
            bench.analog_psd(["lukewarm"])

    def test_same_seed_same_records(self):
        bench = build_prototype_testbench(n_samples=2**12)
        first = self._philox(bench)
        assert np.array_equal(first, self._philox(bench))
        assert not np.array_equal(first, self._philox(bench, seed=8))

    def test_caller_spawn_count_unchanged(self):
        bench = build_prototype_testbench(n_samples=2**12)
        counts = {}
        for mode in ("compat", "philox"):
            gens = spawn_rngs(3, 2)
            _, _, dig_rngs, _, _ = bench.acquire_analog_batch(
                ["hot", "cold"], gens, rng_mode=mode
            )
            counts[mode] = [g.bit_generator.seed_seq.n_children_spawned for g in gens]
            # The digitizer generators come back un-consumed.
            assert all(
                g.bit_generator.seed_seq.n_children_spawned == 0
                for g in dig_rngs
            )
        assert counts["philox"] == counts["compat"] == [2, 2]
