"""Tests for repro.core.uncertainty (the +/-0.3 dB claim of ref [6])."""

import pytest

from repro.core.definitions import noise_factor_from_y
from repro.core.uncertainty import (
    monte_carlo_nf,
    nf_uncertainty_budget,
)
from repro.errors import ConfigurationError


class TestAnalyticBudget:
    def test_paper_claim_3db(self):
        # 5 % hot-temperature error, NF 3 dB, Th 2900 K -> ~0.24 dB.
        budget = nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=0.05)
        assert budget.sigma_nf_db == pytest.approx(0.24, abs=0.02)
        assert budget.sigma_nf_db <= 0.3

    def test_paper_claim_10db(self):
        budget = nf_uncertainty_budget(10.0, 2900.0, rel_sigma_t_hot=0.05)
        assert budget.sigma_nf_db <= 0.3

    def test_budget_scales_linearly_with_error(self):
        small = nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=0.01)
        large = nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=0.05)
        assert large.sigma_nf_db == pytest.approx(5 * small.sigma_nf_db, rel=1e-6)

    def test_dominant_source_identified(self):
        budget = nf_uncertainty_budget(
            3.0, 2900.0, rel_sigma_t_hot=0.05, rel_sigma_y=0.001
        )
        assert budget.dominant_source() == "t_hot"

    def test_y_error_contributes(self):
        no_y = nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=0.05)
        with_y = nf_uncertainty_budget(
            3.0, 2900.0, rel_sigma_t_hot=0.05, rel_sigma_y=0.02
        )
        assert with_y.sigma_f > no_y.sigma_f

    def test_partial_derivative_against_finite_difference(self):
        # Verify the analytic dF/dTh against a numerical derivative.
        nf, th = 6.0, 2900.0
        budget = nf_uncertainty_budget(nf, th, rel_sigma_t_hot=0.05)
        f0 = budget.noise_factor
        y = budget.y_nominal
        delta = 1.0
        f_plus = noise_factor_from_y(y, th + delta, 290.0)
        dfdth_numeric = (f_plus - f0) / delta
        dfdth_analytic = budget.sigma_f / (0.05 * th)
        assert dfdth_analytic == pytest.approx(abs(dfdth_numeric), rel=1e-3)

    def test_rejects_negative_sigmas(self):
        with pytest.raises(ConfigurationError):
            nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=-0.01)


class TestMonteCarlo:
    def test_matches_analytic_for_small_errors(self):
        budget = nf_uncertainty_budget(3.0, 2900.0, rel_sigma_t_hot=0.05)
        mc = monte_carlo_nf(
            3.0, 2900.0, rel_sigma_t_hot=0.05, n_trials=50000, rng=1
        )
        assert mc.nf_std_db == pytest.approx(budget.sigma_nf_db, rel=0.1)

    def test_mean_near_nominal(self):
        mc = monte_carlo_nf(10.0, 2900.0, rel_sigma_t_hot=0.05, n_trials=50000, rng=2)
        assert mc.nf_mean_db == pytest.approx(10.0, abs=0.05)

    def test_percentiles_bracket_mean(self):
        mc = monte_carlo_nf(3.0, 2900.0, rel_sigma_t_hot=0.05, n_trials=20000, rng=3)
        assert mc.nf_p05_db < mc.nf_mean_db < mc.nf_p95_db

    def test_rejection_counting(self):
        # Gigantic errors produce rejected (unphysical) trials.
        mc = monte_carlo_nf(
            0.5, 400.0, rel_sigma_t_hot=0.8, n_trials=2000, rng=4
        )
        assert mc.n_rejected > 0

    def test_too_few_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            monte_carlo_nf(3.0, 2900.0, n_trials=5)

    def test_reproducible(self):
        a = monte_carlo_nf(3.0, 2900.0, n_trials=1000, rng=9)
        b = monte_carlo_nf(3.0, 2900.0, n_trials=1000, rng=9)
        assert a.nf_mean_db == b.nf_mean_db
