"""Tests for repro.analog.inverting."""

import numpy as np
import pytest

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.inverting import InvertingAmplifier
from repro.analog.opamp import OPAMP_LIBRARY
from repro.errors import ConfigurationError
from repro.signals.sources import SineSource

FS = 32768.0


def make_inv(opamp=None, rf=10000.0, rin=400.0, rs=600.0):
    return InvertingAmplifier(
        opamp if opamp is not None else OPAMP_LIBRARY["OP27"],
        r_feedback_ohm=rf,
        r_input_ohm=rin,
        source_resistance_ohm=rs,
    )


class TestTopology:
    def test_gain_magnitude(self):
        # G = Rf / (Rs + Rin) = 10000 / 1000 = 10.
        assert make_inv().gain_magnitude == pytest.approx(10.0)

    def test_noise_gain_exceeds_signal_gain(self):
        amp = make_inv()
        assert amp.noise_gain == pytest.approx(11.0)
        assert amp.noise_gain > amp.gain_magnitude

    def test_bandwidth_uses_noise_gain(self):
        amp = make_inv()
        assert amp.bandwidth_hz == pytest.approx(8e6 / 11.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_inv(rf=0.0)
        with pytest.raises(ConfigurationError):
            make_inv(rin=0.0)
        with pytest.raises(ConfigurationError):
            make_inv(rs=0.0)
        with pytest.raises(ConfigurationError):
            InvertingAmplifier("OP27", 1000.0, 100.0, 600.0)


class TestSignalPath:
    def test_inverts_and_scales(self):
        amp = make_inv()
        w = SineSource(1000.0, 1e-3, phase_rad=np.pi / 2).render(4096, FS)
        out = amp.process(w, include_noise=False)
        # Cosine start: the first sample is at +amplitude; the output
        # must start near -gain*amplitude.
        assert out.samples[0] == pytest.approx(-10.0 * 1e-3, rel=0.05)

    def test_amplitude_scaling(self):
        amp = make_inv()
        w = SineSource(1000.0, 1e-3).render(8192, FS)
        out = amp.process(w, include_noise=False)
        assert out.slice(2000, 8192).rms() == pytest.approx(
            10.0 * 1e-3 / np.sqrt(2), rel=0.02
        )


class TestNoise:
    def test_rendered_noise_matches_analytic(self, rng):
        amp = make_inv()
        noise = amp.render_input_noise(200000, FS, rng)
        expected_ms = float(amp.amplifier_noise_density(1000.0)) * FS / 2
        assert noise.mean_square() == pytest.approx(expected_ms, rel=0.06)

    def test_inverting_noisier_than_noninverting_same_opamp(self):
        # Same opamp, same signal gain magnitude, same source, and a
        # low-impedance feedback network in both: the inverting stage's
        # NF is worse (input-resistor Johnson + noise-gain penalty).
        opamp = OPAMP_LIBRARY["OP27"]
        inv = make_inv(opamp)  # |G| = 10
        noninv = NonInvertingAmplifier(
            opamp, 900.0, 100.0, 600.0
        )  # G = 10, Rp = 90 ohm
        assert inv.spot_noise_factor(1000.0) > noninv.spot_noise_factor(1000.0)

    def test_low_gain_penalty_grows(self):
        # The (1+G)/G factor hurts most at low gain.
        low = InvertingAmplifier(OPAMP_LIBRARY["OP27"], 1000.0, 400.0, 600.0)
        high = InvertingAmplifier(OPAMP_LIBRARY["OP27"], 100000.0, 400.0, 600.0)
        en2 = low.opamp.en_density(1000.0)

        def en_referred(amp):
            return en2 * (amp.noise_gain / amp.gain_magnitude) ** 2

        assert en_referred(low) > en_referred(high)

    def test_spot_noise_factor_above_one(self):
        assert make_inv().spot_noise_factor(1000.0) > 1.0


class TestBistIntegration:
    def test_measurable_with_onebit_bist(self, rng):
        # Drive the inverting amplifier from the calibrated source and
        # measure its NF with the standard pipeline.
        from repro.analog.noise_source import CalibratedNoiseSource
        from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
        from repro.digitizer.digitizer import OneBitDigitizer
        from repro.signals.random import spawn_rngs
        from repro.signals.sources import SineSource

        amp = make_inv()
        # Expected NF over the measurement band (flat device).
        expected_f = amp.spot_noise_factor(1000.0)
        expected_nf = 10 * np.log10(expected_f)

        source = CalibratedNoiseSource(600.0, 2900.0, 290.0)
        n, fs = 2**18, 32768.0
        post_gain = 5000.0  # ideal conditioning gain for comparator levels
        dig = OneBitDigitizer()

        def acquire(state, child):
            a, b = spawn_rngs(child, 2)
            analog = amp.process(source.render(state, n, fs, a), b)
            ref_amp = 0.25 * analog.std() if state == "cold" else None
            return analog, ref_amp

        rng_h, rng_c = spawn_rngs(7, 2)
        cold_analog, ref_amp = acquire("cold", rng_c)
        hot_analog, _ = acquire("hot", rng_h)
        reference = SineSource(3000.0, ref_amp).render(n, fs)
        bits_hot = dig.digitize(hot_analog, reference)
        bits_cold = dig.digitize(cold_analog, reference)

        config = BISTMeasurementConfig(
            sample_rate_hz=fs,
            n_samples=n,
            nperseg=8192,
            reference_frequency_hz=3000.0,
            noise_band_hz=(500.0, 1500.0),
            harmonic_kind="all",
        )
        est = OneBitNoiseFigureBIST(config, 2900.0, 290.0)
        result = est.estimate_from_bitstreams(bits_hot, bits_cold)
        assert result.noise_figure_db == pytest.approx(expected_nf, abs=1.2)
