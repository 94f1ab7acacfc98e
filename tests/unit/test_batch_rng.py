"""Unit tests for the counter-based batch noise generator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signals.batch_rng import (
    RNG_MODES,
    BatchNoiseGenerator,
    bernoulli_thresholds_u32,
    gaussian_exceed_probability,
    validate_rng_mode,
    white_noise_matrix,
)
from repro.signals.random import make_rng, spawn_rngs


class TestValidateRngMode:
    def test_accepts_known_modes(self):
        for mode in RNG_MODES:
            assert validate_rng_mode(mode) == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            validate_rng_mode("pcg")


class TestWhiteNoiseMatrixCompat:
    def test_bit_identical_to_per_record_loop(self):
        rngs = spawn_rngs(7, 4)
        out = white_noise_matrix(rngs, 500, mean=0.1, scale=0.3)
        replay = spawn_rngs(7, 4)
        for i in range(4):
            expected = make_rng(replay[i]).normal(0.1, 0.3, size=500)
            assert np.array_equal(out[i], expected)

    def test_per_row_scale(self):
        rngs = spawn_rngs(3, 3)
        scales = np.array([0.1, 0.2, 0.3])
        out = white_noise_matrix(rngs, 400, scale=scales)
        replay = spawn_rngs(3, 3)
        for i in range(3):
            expected = make_rng(replay[i]).normal(0.0, scales[i], size=400)
            assert np.array_equal(out[i], expected)

    @pytest.mark.parametrize("mean", [0.0, 0.25, -3.0, 1e3])
    @pytest.mark.parametrize("scale", [0.3, 0.0])
    def test_byte_identical_to_normal(self, mean, scale):
        # Drawn, scaled and shifted in place: the bytes of gen.normal,
        # signed zeros included.
        out = white_noise_matrix(spawn_rngs(9, 2), 1000, mean=mean, scale=scale)
        for row, gen in zip(out, spawn_rngs(9, 2)):
            expected = make_rng(gen).normal(mean, scale, size=1000)
            assert row.tobytes() == expected.tobytes()

    def test_out_buffer_reuse(self):
        rngs = spawn_rngs(5, 2)
        buf = np.empty((2, 100))
        out = white_noise_matrix(rngs, 100, out=buf)
        assert out is buf

    def test_bad_out_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            white_noise_matrix(spawn_rngs(5, 2), 100, out=np.empty((3, 100)))

    def test_bad_scale_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            white_noise_matrix(spawn_rngs(5, 2), 100, scale=np.ones(3))


class TestWhiteNoiseMatrixPhilox:
    def test_deterministic_per_seed(self):
        a = white_noise_matrix(spawn_rngs(7, 4), 500, rng_mode="philox")
        b = white_noise_matrix(spawn_rngs(7, 4), 500, rng_mode="philox")
        assert np.array_equal(a, b)

    def test_rows_are_independent_streams(self):
        out = white_noise_matrix(spawn_rngs(7, 4), 500, rng_mode="philox")
        for i in range(1, 4):
            assert not np.array_equal(out[0], out[i])

    def test_differs_from_compat_realization(self):
        compat = white_noise_matrix(spawn_rngs(7, 2), 500)
        philox = white_noise_matrix(spawn_rngs(7, 2), 500, rng_mode="philox")
        assert not np.array_equal(compat, philox)

    def test_successive_fills_from_same_generators_differ(self):
        # The counter-based counterpart of compat's advancing stream:
        # reusing one generator must not replay the same noise (the
        # amplifier's en/in/Johnson contributors rely on this).
        gens = spawn_rngs(11, 2)
        first = white_noise_matrix(gens, 300, rng_mode="philox")
        second = white_noise_matrix(gens, 300, rng_mode="philox")
        assert not np.array_equal(first, second)

    def test_scale_and_mean_applied(self):
        out = white_noise_matrix(
            spawn_rngs(3, 4), 200_000, mean=1.5, scale=0.25, rng_mode="philox"
        )
        assert abs(out.mean() - 1.5) < 0.01
        assert abs(out.std() - 0.25) < 0.01

    def test_statistics_are_gaussian(self):
        out = white_noise_matrix(spawn_rngs(3, 2), 500_000, rng_mode="philox")
        flat = out.ravel()
        assert abs(flat.mean()) < 0.01
        assert abs(flat.std() - 1.0) < 0.01
        # fourth moment of a standard normal is 3
        assert abs((flat**4).mean() - 3.0) < 0.1


class TestBatchNoiseGenerator:
    def test_zero_samples(self):
        gen = BatchNoiseGenerator(spawn_rngs(1, 3))
        out = gen.normal_matrix(0)
        assert out.shape == (3, 0)

    def test_int_seeds_accepted(self):
        gen = BatchNoiseGenerator([1, 2, 3])
        out = gen.normal_matrix(100)
        assert out.shape == (3, 100)
        again = BatchNoiseGenerator([1, 2, 3]).normal_matrix(100)
        assert np.array_equal(out, again)

    @pytest.mark.parametrize("n", [4096, 4097])
    def test_spectral_matrix_flat_psd_is_white(self, n):
        # A flat one-sided PSD S at rate fs is white noise of variance
        # S * fs / 2, whatever the parity of n (odd n has no Nyquist
        # bin).  64 x ~4096 samples: the variance SE is ~0.3 %.
        fs, density = 1e4, 2e-4
        psd = np.full(n // 2 + 1, density)
        out = BatchNoiseGenerator(spawn_rngs(8, 64)).spectral_matrix(
            psd, n, fs
        )
        assert out.shape == (64, n)
        assert out.var() == pytest.approx(density * fs / 2.0, rel=0.02)
        # Lag-1 autocorrelation of white noise: ~0 (SE ~ 2e-3).
        assert abs(np.mean(out[:, 1:] * out[:, :-1])) < 0.02 * out.var()

    def test_spectral_matrix_per_row_psd_and_determinism(self):
        n, fs = 1000, 1e3
        psds = [np.full(n // 2 + 1, 1.0), np.full(n // 2 + 1, 4.0)]
        out = BatchNoiseGenerator([5, 5]).spectral_matrix(psds, n, fs)
        # Same seed, PSD 4x: the same realization at twice the amplitude.
        assert np.allclose(out[1], 2.0 * out[0], rtol=1e-12, atol=0.0)
        again = BatchNoiseGenerator([5, 5]).spectral_matrix(psds, n, fs)
        assert np.array_equal(out, again)

    def test_spectral_matrix_rejects_bad_psd(self):
        gen = BatchNoiseGenerator(spawn_rngs(1, 2))
        with pytest.raises(ConfigurationError):
            gen.spectral_matrix(np.ones(10), 100, 1e3)  # wrong grid
        with pytest.raises(ConfigurationError):
            gen.spectral_matrix([np.ones(51)], 100, 1e3)  # one PSD, 2 rows
        bad = np.ones(51)
        bad[3] = -1.0
        with pytest.raises(ConfigurationError):
            gen.spectral_matrix(bad, 100, 1e3)
        bad[3] = np.inf
        with pytest.raises(ConfigurationError):
            gen.spectral_matrix(bad, 100, 1e3)

    def test_packed_bernoulli_deterministic(self):
        p = bernoulli_thresholds_u32(np.full(1000, 0.5))
        a = BatchNoiseGenerator(spawn_rngs(9, 2)).packed_bernoulli_words(p)
        b = BatchNoiseGenerator(spawn_rngs(9, 2)).packed_bernoulli_words(p)
        assert np.array_equal(a, b)
        assert a.shape == (2, 125)

    def test_packed_bernoulli_extremes(self):
        zero = bernoulli_thresholds_u32(np.zeros(800))
        one = bernoulli_thresholds_u32(np.ones(800))
        gen = BatchNoiseGenerator(spawn_rngs(9, 1))
        assert not np.unpackbits(gen.packed_bernoulli_words(zero)).any()
        assert np.unpackbits(
            BatchNoiseGenerator(spawn_rngs(9, 1)).packed_bernoulli_words(one)
        ).all()

    def test_packed_bernoulli_probability(self):
        p = bernoulli_thresholds_u32(np.full(200_000, 0.3))
        words = BatchNoiseGenerator(spawn_rngs(1, 2)).packed_bernoulli_words(p)
        frac = np.unpackbits(words, axis=-1, count=200_000).mean()
        assert abs(frac - 0.3) < 0.005

    def test_packed_bernoulli_per_row_thresholds(self):
        lo = bernoulli_thresholds_u32(np.full(80_000, 0.2))
        hi = bernoulli_thresholds_u32(np.full(80_000, 0.8))
        words = BatchNoiseGenerator(spawn_rngs(4, 2)).packed_bernoulli_words(
            [lo, hi]
        )
        bits = np.unpackbits(words, axis=-1, count=80_000)
        assert abs(bits[0].mean() - 0.2) < 0.01
        assert abs(bits[1].mean() - 0.8) < 0.01

    def test_packed_bernoulli_rejects_mismatched_rows(self):
        gen = BatchNoiseGenerator(spawn_rngs(4, 3))
        p = bernoulli_thresholds_u32(np.full(100, 0.5))
        with pytest.raises(ConfigurationError):
            gen.packed_bernoulli_words([p, p])

    def test_packed_bernoulli_rejects_bad_dtype(self):
        gen = BatchNoiseGenerator(spawn_rngs(4, 1))
        with pytest.raises(ConfigurationError):
            gen.packed_bernoulli_words(np.full(100, 0.5))


class TestThresholdMath:
    def test_thresholds_quantize_within_half_ulp(self):
        p = np.array([0.0, 0.25, 0.5, 1.0])
        t = bernoulli_thresholds_u32(p)
        assert t.dtype == np.uint32
        assert t[0] == 0
        assert t[1] == 1 << 30
        assert t[2] == 1 << 31
        assert t[3] == (1 << 32) - 1  # p=1 saturates one ulp short

    def test_thresholds_reject_out_of_range(self):
        with pytest.raises(ConfigurationError):
            bernoulli_thresholds_u32(np.array([1.5]))
        with pytest.raises(ConfigurationError):
            bernoulli_thresholds_u32(np.array([np.nan]))

    def test_exceed_probability_matches_erfc(self):
        import math

        x = np.linspace(-6, 6, 101)
        p = gaussian_exceed_probability(x)
        expected = np.array(
            [0.5 * math.erfc(v / math.sqrt(2.0)) for v in x]
        )
        assert np.allclose(p, expected, rtol=1e-12, atol=1e-300)

