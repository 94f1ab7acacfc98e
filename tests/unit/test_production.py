"""Tests for repro.core.production."""

import numpy as np
import pytest

from repro.core.production import (
    ProductionNfScreen,
    Verdict,
    screen_population,
)
from repro.errors import ConfigurationError


def make_screen(limit=8.0, sigma=0.4, guardband=2.0):
    return ProductionNfScreen(
        limit_db=limit,
        measurement_sigma_db=sigma,
        guardband_sigmas=guardband,
    )


class TestClassify:
    def test_pass_below_guardbanded_limit(self):
        screen = make_screen()
        assert screen.classify(7.0) is Verdict.PASS

    def test_fail_above_limit(self):
        screen = make_screen()
        assert screen.classify(8.5) is Verdict.FAIL

    def test_retest_in_guard_band(self):
        screen = make_screen()  # guard band 0.8 dB: retest in (7.2, 8.0]
        assert screen.classify(7.5) is Verdict.RETEST
        assert screen.classify(8.0) is Verdict.RETEST

    def test_zero_guardband_has_no_retest_zone(self):
        screen = make_screen(guardband=0.0)
        assert screen.classify(7.999) is Verdict.PASS
        assert screen.classify(8.001) is Verdict.FAIL

    def test_guardband_db(self):
        assert make_screen(sigma=0.5, guardband=3.0).guardband_db == 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_screen(limit=0.0)
        with pytest.raises(ConfigurationError):
            make_screen(sigma=-0.1)
        with pytest.raises(ConfigurationError):
            make_screen(guardband=-1.0)


class TestPopulation:
    def test_perfect_measurement_no_errors(self):
        screen = make_screen(guardband=0.0)
        true = [6.0, 7.0, 9.0, 10.0]
        outcome = screen_population(screen, true, true)
        assert outcome.n_escapes == 0
        assert outcome.n_overkill == 0
        assert outcome.n_pass == 2
        assert outcome.n_fail == 2

    def test_escape_detected(self):
        screen = make_screen(guardband=0.0)
        # True 8.5 (bad) measured 7.5 (passes) -> escape.
        outcome = screen_population(screen, [8.5], [7.5])
        assert outcome.n_escapes == 1
        assert outcome.escape_rate == 1.0

    def test_overkill_detected(self):
        screen = make_screen(guardband=0.0)
        # True 7.5 (good) measured 8.5 (fails) -> overkill.
        outcome = screen_population(screen, [7.5], [8.5])
        assert outcome.n_overkill == 1

    def test_guardband_blocks_escape_into_retest(self):
        # The same borderline device: without guard band it escapes,
        # with it it lands in RETEST.
        loose = make_screen(guardband=0.0)
        tight = make_screen(guardband=2.0)  # 0.8 dB band
        true, measured = [8.3], [7.6]
        assert screen_population(loose, true, measured).n_escapes == 1
        outcome = screen_population(tight, true, measured)
        assert outcome.n_escapes == 0
        assert outcome.n_retest == 1

    def test_counts_sum(self):
        screen = make_screen()
        rng = np.random.default_rng(0)
        true = rng.uniform(6.0, 10.0, size=50)
        measured = true + rng.normal(0, 0.4, size=50)
        outcome = screen_population(screen, true, measured)
        assert (
            outcome.n_pass + outcome.n_fail + outcome.n_retest
            == outcome.n_devices
        )

    def test_validation(self):
        screen = make_screen()
        with pytest.raises(ConfigurationError):
            screen_population(screen, [8.0], [8.0, 9.0])
        with pytest.raises(ConfigurationError):
            screen_population(screen, [], [])
