"""Tests for repro.experiments.matlab_sim (the section-5.2 environment)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation


class TestConfig:
    def test_defaults_match_paper(self):
        c = MatlabSimConfig()
        assert c.t_hot_k == 10000.0
        assert c.t_cold_k == 1000.0
        assert c.n_samples == 1_000_000
        assert c.nperseg == 10000
        assert c.reference_frequency_hz == 60.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MatlabSimConfig(t_hot_k=500.0, t_cold_k=1000.0)
        with pytest.raises(ConfigurationError):
            MatlabSimConfig(reference_ratio=0.0)
        with pytest.raises(ConfigurationError):
            MatlabSimConfig(cold_rms_v=0.0)


class TestSimulation:
    def test_true_ratio_matches_eq(self):
        sim = MatlabSimulation()
        # Te for a 10 dB DUT is 2610 K.
        assert sim.te_k == pytest.approx(2610.0, rel=1e-4)
        assert sim.true_power_ratio == pytest.approx(12610.0 / 3610.0)

    def test_noise_rms_anchored_to_cold(self):
        sim = MatlabSimulation()
        assert sim.noise_rms("cold") == 0.30
        assert sim.noise_rms("hot") == pytest.approx(
            0.30 * np.sqrt(sim.true_power_ratio)
        )

    def test_invalid_state_rejected(self):
        with pytest.raises(ConfigurationError):
            MatlabSimulation().noise_rms("lukewarm")

    def test_reference_amplitude(self):
        sim = MatlabSimulation()
        assert sim.reference_amplitude_v == pytest.approx(0.06)

    def test_rendered_noise_levels(self):
        cfg = MatlabSimConfig(n_samples=100000, nperseg=5000)
        sim = MatlabSimulation(cfg)
        hot = sim.render_noise("hot", rng=1)
        cold = sim.render_noise("cold", rng=2)
        assert hot.rms() == pytest.approx(sim.noise_rms("hot"), rel=0.02)
        assert cold.rms() == pytest.approx(sim.noise_rms("cold"), rel=0.02)

    def test_reference_is_square_at_60hz(self):
        cfg = MatlabSimConfig(n_samples=10000, nperseg=5000)
        ref = MatlabSimulation(cfg).reference_waveform()
        assert set(np.unique(ref.samples)) == {-0.06, 0.06}

    def test_bitstream_is_pm_one(self):
        cfg = MatlabSimConfig(n_samples=20000, nperseg=5000)
        bits = MatlabSimulation(cfg).bitstream("cold", rng=3)
        assert set(np.unique(bits.samples)) <= {-1.0, 1.0}

    def test_estimator_calibration(self):
        sim = MatlabSimulation()
        est = sim.make_estimator()
        assert est.t_hot_k == 10000.0
        assert est.t_cold_k == 1000.0
        assert est.config.harmonic_kind == "odd"


class TestPhiloxFallbackPaths:
    """Philox packed acquisition outside the Bernoulli model.

    Hysteresis makes comparator decisions state-dependent and latch
    jitter randomizes the sampling instants, so direct Bernoulli
    synthesis must *fall back* to counter-based noise fills plus the
    regular digitize path — deterministically.
    """

    def _sim(self):
        return MatlabSimulation(
            MatlabSimConfig(n_samples=20_000, nperseg=1000)
        )

    def _digitizer(self, kind):
        from repro.digitizer.comparator import Comparator
        from repro.digitizer.digitizer import OneBitDigitizer
        from repro.digitizer.sampler import SampledLatch

        if kind == "hysteresis":
            return OneBitDigitizer(
                comparator=Comparator(hysteresis_v=0.02)
            )
        if kind == "jitter":
            return OneBitDigitizer(
                sampler=SampledLatch(1, jitter_rms_samples=0.5)
            )
        raise AssertionError(kind)

    def _acquire(self, sim, dig, seed=3):
        from repro.signals.random import spawn_rngs

        return sim.acquire_bitstreams(
            ["hot", "cold"],
            spawn_rngs(seed, 2),
            digitizer=dig,
            rng_mode="philox",
        )

    @pytest.mark.parametrize("kind", ["hysteresis", "jitter"])
    def test_fallback_thresholds_refused(self, kind):
        sim = self._sim()
        assert (
            sim._bernoulli_thresholds("hot", self._digitizer(kind)) is None
        )

    @pytest.mark.parametrize("kind", ["hysteresis", "jitter"])
    def test_fallback_is_deterministic(self, kind):
        sim = self._sim()
        batch_a, rate_a = self._acquire(sim, self._digitizer(kind))
        batch_b, rate_b = self._acquire(sim, self._digitizer(kind))
        assert rate_a == rate_b
        assert np.array_equal(batch_a.words, batch_b.words)

    @pytest.mark.parametrize("kind", ["hysteresis", "jitter"])
    def test_fallback_records_carry_philox_provenance(self, kind):
        batch, _ = self._acquire(self._sim(), self._digitizer(kind))
        assert batch.provenance is not None
        assert all(p.rng_mode == "philox" for p in batch.provenance)

    def test_fallback_statistics_match_fast_path(self):
        # Same stochastic process either side of the model boundary: the
        # hysteresis-free bench takes the direct Bernoulli path, the
        # hysteretic one the fallback; with a tiny hysteresis their bit
        # fractions must agree to well under binomial scatter.
        from repro.digitizer.comparator import Comparator
        from repro.digitizer.digitizer import OneBitDigitizer

        sim = self._sim()
        fast, _ = self._acquire(sim, OneBitDigitizer())
        tiny = OneBitDigitizer(comparator=Comparator(hysteresis_v=1e-9))
        slow, _ = self._acquire(sim, tiny)
        frac_fast = np.unpackbits(
            fast.words, axis=-1, count=fast.n_samples
        ).mean(axis=-1)
        frac_slow = np.unpackbits(
            slow.words, axis=-1, count=slow.n_samples
        ).mean(axis=-1)
        assert np.abs(frac_fast - frac_slow).max() < 0.02

    def test_fast_path_still_taken_when_model_allows(self):
        # Offset, comparator input noise and clock division fold into
        # the Bernoulli model — these digitizers must NOT fall back.
        from repro.digitizer.comparator import Comparator
        from repro.digitizer.digitizer import OneBitDigitizer
        from repro.digitizer.sampler import SampledLatch

        sim = self._sim()
        for dig in (
            OneBitDigitizer(comparator=Comparator(offset_v=0.01)),
            OneBitDigitizer(
                comparator=Comparator(input_noise_rms=0.01)
            ),
            OneBitDigitizer(sampler=SampledLatch(2)),
        ):
            assert sim._bernoulli_thresholds("cold", dig) is not None
