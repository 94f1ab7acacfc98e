"""Property-based tests for the noise-figure math (eqs 2-9)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.definitions import (
    f_to_nf,
    friis_cascade_factor,
    nf_to_f,
    noise_factor_from_y,
    noise_factor_from_y_powers,
    noise_temperature_from_factor,
    y_factor_expected,
)

factors = st.floats(min_value=1.0, max_value=1e4)
hot_temps = st.floats(min_value=400.0, max_value=1e6)
cold_temps = st.floats(min_value=10.0, max_value=350.0)


class TestConversionProperties:
    @given(f=factors)
    def test_nf_roundtrip(self, f):
        assert nf_to_f(f_to_nf(f)) == pytest.approx(f, rel=1e-9)

    @given(f=factors)
    def test_nf_nonnegative(self, f):
        assert f_to_nf(f) >= 0.0

    @given(f=st.floats(min_value=1.0, max_value=1e4), g=st.floats(min_value=1.0, max_value=1e4))
    def test_nf_monotonic(self, f, g):
        # Non-strict: adjacent doubles can round to the same NF
        # (e.g. 9999.999999999998 and 10000.0 both map to 40.0 dB).
        if f < g:
            assert f_to_nf(f) <= f_to_nf(g)
        if g >= f * (1.0 + 1e-12):
            assert f_to_nf(f) < f_to_nf(g)

    @given(f=factors)
    def test_te_consistency(self, f):
        te = noise_temperature_from_factor(f)
        assert te == pytest.approx((f - 1.0) * 290.0)
        assert te >= 0.0


class TestYFactorProperties:
    @given(f=factors, th=hot_temps, tc=cold_temps)
    def test_eq8_inverts_forward_model(self, f, th, tc):
        y = y_factor_expected(f, th, tc)
        if y <= 1.0 + 1e-9:  # degenerate: F so large Y saturates
            return
        recovered = noise_factor_from_y(y, th, tc)
        assert recovered == pytest.approx(f, rel=1e-6)

    @given(f=factors, th=hot_temps, tc=cold_temps)
    def test_y_bounded_by_temperature_ratio(self, f, th, tc):
        # DUT noise can only compress Y below the source ratio Th/Tc.
        y = y_factor_expected(f, th, tc)
        assert 1.0 <= y <= th / tc + 1e-12

    @given(f=factors, th=hot_temps, tc=cold_temps, scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_eq9_scale_invariance(self, f, th, tc, scale):
        # Eq 9 with powers proportional to temperatures at ANY scale
        # matches eq 8 — the gain-independence at the heart of the method.
        y = y_factor_expected(f, th, tc)
        if y <= 1.0 + 1e-9:
            return
        f8 = noise_factor_from_y(y, th, tc, 290.0)
        f9 = noise_factor_from_y_powers(y, th * scale, tc * scale, 290.0 * scale)
        assert f9 == pytest.approx(f8, rel=1e-9)

    @given(
        f1=st.floats(min_value=1.0, max_value=100.0),
        f2=st.floats(min_value=1.0, max_value=100.0),
        g=st.floats(min_value=1.0, max_value=1e5),
    )
    def test_friis_bounds(self, f1, f2, g):
        total = friis_cascade_factor([f1, f2], [g, 1.0])
        # Cascade noise is at least the first stage and at most the sum.
        assert total >= f1 - 1e-12
        assert total <= f1 + (f2 - 1.0) + 1e-12

    @given(
        f2=st.floats(min_value=1.0, max_value=100.0),
        g_small=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_friis_more_gain_less_second_stage(self, f2, g_small):
        low = friis_cascade_factor([2.0, f2], [g_small, 1.0])
        high = friis_cascade_factor([2.0, f2], [g_small * 100.0, 1.0])
        assert high <= low + 1e-12
