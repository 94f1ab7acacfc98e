"""Tests for repro.signals.sources."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.signals.sources import (
    CompositeSource,
    DCSource,
    GaussianNoiseSource,
    ShapedNoiseSource,
    SineSource,
    SquareSource,
    ThermalNoiseSource,
    _unit_sine,
)

FS = 10000.0
N = 20000


class TestSineSource:
    def test_amplitude_and_rms(self):
        w = SineSource(100.0, 2.0).render(N, FS)
        assert w.peak() == pytest.approx(2.0, rel=1e-3)
        assert w.rms() == pytest.approx(2.0 / np.sqrt(2), rel=1e-3)

    def test_frequency_via_zero_crossings(self):
        w = SineSource(50.0, 1.0).render(N, FS)
        crossings = np.sum(np.diff(np.signbit(w.samples)))
        # 50 Hz over 2 s -> 100 cycles -> ~200 crossings.
        assert crossings == pytest.approx(200, abs=2)

    def test_dc_offset(self):
        w = SineSource(100.0, 1.0, dc=3.0).render(N, FS)
        assert w.mean() == pytest.approx(3.0, abs=1e-6)

    def test_phase_shift(self):
        w = SineSource(100.0, 1.0, phase_rad=np.pi / 2).render(4, FS)
        assert w.samples[0] == pytest.approx(1.0)

    def test_rejects_frequency_at_nyquist(self):
        with pytest.raises(ConfigurationError):
            SineSource(FS / 2, 1.0).render(10, FS)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ConfigurationError):
            SineSource(100.0, -1.0)

    def test_deterministic_ignores_rng(self):
        a = SineSource(100.0, 1.0).render(100, FS, rng=1)
        b = SineSource(100.0, 1.0).render(100, FS, rng=2)
        assert a == b


    @pytest.mark.parametrize(
        "args, n, fs",
        [((3000.0, 0.031), 2**17, 32768.0), ((60.0, 1.7, 0.3, -0.4), 10_001, FS)],
    )
    def test_byte_identical_to_formula(self, args, n, fs):
        source = SineSource(*args)
        t = np.arange(n) / fs
        expected = (
            source.amplitude
            * np.sin(2.0 * np.pi * source.frequency_hz * t + source.phase_rad)
            + source.dc
        )
        for _ in range(2):  # fresh, then from the cached unit sine
            assert source.render(n, fs).samples.tobytes() == expected.tobytes()

    def test_unit_sine_is_cached_read_only(self):
        SineSource(123.0, 1.0).render(N, FS)
        unit = _unit_sine(123.0, 0.0, N, FS)
        assert not unit.flags.writeable
        before = _unit_sine.cache_info()
        other = SineSource(123.0, 2.5).render(N, FS)
        after = _unit_sine.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert other.samples.tobytes() == (2.5 * unit + 0.0).tobytes()


class TestSquareSource:
    def test_takes_only_two_levels(self):
        w = SquareSource(60.0, 1.5).render(N, FS)
        assert set(np.unique(w.samples)) == {-1.5, 1.5}

    def test_duty_cycle(self):
        w = SquareSource(10.0, 1.0, duty=0.25).render(N, FS)
        high_fraction = np.mean(w.samples > 0)
        assert high_fraction == pytest.approx(0.25, abs=0.01)

    def test_mean_square_is_amplitude_squared(self):
        w = SquareSource(60.0, 2.0).render(N, FS)
        assert w.mean_square() == pytest.approx(4.0)

    def test_fundamental_line_is_4_over_pi(self):
        # The square-wave fundamental has amplitude (4/pi)*A.
        from repro.dsp.psd import periodogram

        w = SquareSource(100.0, 1.0).render(N, FS)
        spec = periodogram(w)
        _, p = spec.line_power(100.0, 20.0, subtract_floor=False)
        amp = np.sqrt(2 * p)
        assert amp == pytest.approx(4 / np.pi, rel=0.01)

    @pytest.mark.parametrize(
        "args, n, fs",
        [((60.0, 0.06), 1_000_000, FS), ((7.0, 1.0, -1.1, 0.3, 1e3), 12_345, 100.0)],
    )
    def test_byte_identical_to_formula(self, args, n, fs):
        source = SquareSource(*args)
        t = np.arange(n) / fs
        phase = (
            source.frequency_hz * t + source.phase_rad / (2.0 * np.pi)
        ) % 1.0
        expected = (
            np.where(phase < source.duty, source.amplitude, -source.amplitude)
            + source.dc
        )
        assert source.render(n, fs).samples.tobytes() == expected.tobytes()

    def test_rejects_bad_duty(self):
        with pytest.raises(ConfigurationError):
            SquareSource(60.0, 1.0, duty=1.0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ConfigurationError):
            SquareSource(0.0, 1.0)


class TestGaussianNoiseSource:
    def test_rms_level(self, rng):
        w = GaussianNoiseSource(0.5).render(N, FS, rng)
        assert w.std() == pytest.approx(0.5, rel=0.03)

    def test_mean_level(self, rng):
        w = GaussianNoiseSource(0.1, mean=2.0).render(N, FS, rng)
        assert w.mean() == pytest.approx(2.0, abs=0.01)

    def test_from_density_total_power(self, rng):
        # One-sided density S over [0, fs/2] must integrate to sigma^2.
        source = GaussianNoiseSource.from_density(2e-4, FS)
        w = source.render(N, FS, rng)
        assert w.mean_square() == pytest.approx(2e-4 * FS / 2, rel=0.05)

    def test_reproducible_with_seed(self):
        a = GaussianNoiseSource(1.0).render(100, FS, rng=7)
        b = GaussianNoiseSource(1.0).render(100, FS, rng=7)
        assert a == b

    def test_rejects_negative_rms(self):
        with pytest.raises(ConfigurationError):
            GaussianNoiseSource(-0.1)


class TestThermalNoiseSource:
    def test_density_matches_4ktr(self):
        src = ThermalNoiseSource(1000.0, 290.0)
        assert src.density_v2_per_hz == pytest.approx(1.6e-17, rel=0.01)

    def test_rendered_power(self, rng):
        src = ThermalNoiseSource(1e6, 10000.0)  # big R/T for numerics
        w = src.render(N, FS, rng)
        expected_ms = src.density_v2_per_hz * FS / 2
        assert w.mean_square() == pytest.approx(expected_ms, rel=0.05)

    def test_power_proportional_to_temperature(self, rng):
        cold = ThermalNoiseSource(1e6, 1000.0)
        hot = ThermalNoiseSource(1e6, 4000.0)
        assert hot.density_v2_per_hz == pytest.approx(4 * cold.density_v2_per_hz)


class TestShapedNoiseSource:
    def test_flat_density_matches_white(self, rng):
        src = ShapedNoiseSource(lambda f: np.full_like(f, 1e-4))
        w = src.render(N, FS, rng)
        assert w.mean_square() == pytest.approx(1e-4 * FS / 2, rel=0.05)

    def test_one_over_f_has_more_low_frequency_power(self, rng):
        from repro.dsp.psd import welch

        src = ShapedNoiseSource.one_over_f(1e-4, corner_hz=1000.0)
        w = src.render(100000, FS, rng)
        spec = welch(w, nperseg=4096)
        low = spec.band_mean_density(20.0, 100.0)
        high = spec.band_mean_density(4000.0, 4900.0)
        assert low > 3 * high

    def test_output_is_zero_mean(self, rng):
        src = ShapedNoiseSource.one_over_f(1e-4, corner_hz=100.0)
        w = src.render(N, FS, rng)
        assert abs(w.mean()) < 1e-10

    def test_rejects_negative_density(self, rng):
        src = ShapedNoiseSource(lambda f: np.full_like(f, -1.0))
        with pytest.raises(ConfigurationError):
            src.render(100, FS, rng)

    def test_rejects_wrong_shape(self, rng):
        src = ShapedNoiseSource(lambda f: np.zeros(3))
        with pytest.raises(ConfigurationError):
            src.render(100, FS, rng)

    def test_empty_render(self, rng):
        src = ShapedNoiseSource.one_over_f(1e-4, 10.0)
        assert len(src.render(0, FS, rng)) == 0


class TestCompositeSource:
    def test_sums_members(self, rng):
        comp = CompositeSource([DCSource(1.0), DCSource(2.0)])
        w = comp.render(10, FS, rng)
        assert np.allclose(w.samples, 3.0)

    def test_add_operator(self, rng):
        comp = SineSource(100.0, 1.0) + DCSource(5.0)
        w = comp.render(N, FS, rng)
        assert w.mean() == pytest.approx(5.0, abs=1e-6)

    def test_noise_members_are_independent(self, rng):
        comp = CompositeSource(
            [GaussianNoiseSource(1.0), GaussianNoiseSource(1.0)]
        )
        w = comp.render(N, FS, rng)
        # Independent sum: variance adds (2.0), not amplitude (4.0).
        assert w.mean_square() == pytest.approx(2.0, rel=0.05)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CompositeSource([])

    def test_rejects_non_source(self):
        with pytest.raises(ConfigurationError):
            CompositeSource([DCSource(1.0), "not a source"])
