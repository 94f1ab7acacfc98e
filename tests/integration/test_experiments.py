"""Integration tests of the experiment harness: every paper table/figure
must regenerate with the paper's qualitative structure intact."""

import numpy as np
import pytest

from repro.engine import MeasurementEngine
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig13 import run_fig13
from repro.experiments.gain_sensitivity import run_gain_sensitivity
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.resources import run_resources
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.uncertainty import run_uncertainty
from repro.experiments.vanvleck import run_vanvleck
from repro.instruments.testbench import PrototypeTestbench
from repro.store import ResultStore

# Reduced-size Matlab-sim config for fast tests (keeps 60 Hz on-bin).
FAST_SIM = MatlabSimConfig(n_samples=250_000, nperseg=5000)


@pytest.fixture
def testbench_acquisitions(monkeypatch):
    """Every state a testbench acquires from here on, in call order."""
    states = []
    acquire = PrototypeTestbench.acquire_bitstreams

    def counting(self, batch_states, rngs, **kwargs):
        states.extend(batch_states)
        return acquire(self, batch_states, rngs, **kwargs)

    monkeypatch.setattr(PrototypeTestbench, "acquire_bitstreams", counting)
    return states


class TestTable1:
    def test_rows_match_paper(self):
        result = run_table1()
        factors = [row.noise_factor for row in result.rows]
        assert factors == pytest.approx([1.0, 2.0, 10.0], rel=1e-4)


@pytest.fixture(scope="module")
def table2_full():
    """Table 2 at the paper's full record length (1e6 samples, FFT 1e4)."""
    return run_table2(seed=2005)


class TestTable2:
    def test_true_ratio_matches_paper_context(self):
        sim = MatlabSimulation(FAST_SIM)
        # (10000+2610)/(1000+2610) = 3.4931; the paper measured 3.4866.
        assert sim.true_power_ratio == pytest.approx(3.4931, abs=1e-3)

    def test_all_methods_recover_nf10(self, table2_full):
        for row in table2_full.rows:
            assert row.nf_db == pytest.approx(10.0, abs=0.5), row.method

    def test_onebit_error_within_paper_envelope(self, table2_full):
        # The paper reports ~2.5 % for the 1-bit method at this record
        # length.
        row = table2_full.row("onebit_psd_ratio_excluding_reference")
        assert abs(row.ratio_error_pct) < 3.0

    def test_analog_methods_tighter_than_onebit(self, table2_full):
        ms = abs(table2_full.row("mean_square_ratio").ratio_error_pct)
        assert ms < 1.0


class TestTable3:
    def test_paper_mode_reproduces_expected_column(self):
        result = run_table3(mode="paper", n_samples=2**17, seed=1)
        expected = [row.expected_nf_db for row in result.rows]
        assert expected == pytest.approx([3.7, 6.5, 10.1, 16.2], abs=0.05)

    def test_paper_mode_measured_within_2db(self):
        # The paper's own max absolute error envelope.
        result = run_table3(mode="paper", n_samples=2**18, seed=2005)
        assert result.max_abs_error_db < 2.0

    def test_measured_ordering_preserved(self):
        result = run_table3(mode="paper", n_samples=2**17, seed=3)
        measured = [row.measured_nf_db for row in result.rows]
        assert measured == sorted(measured)

    def test_datasheet_mode_runs_and_orders(self):
        result = run_table3(mode="datasheet", n_samples=2**17, seed=4)
        expected = [row.expected_nf_db for row in result.rows]
        assert expected == sorted(expected)

    def test_invalid_mode_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_table3(mode="magic")

    def test_failed_row_is_reported_and_the_rest_kept(self):
        # At 2**15 samples the paper-mode CA3140 row (Th fixed at
        # 2900 K, true Y about 1.22) reads Y = 0.957 at this seed.
        result = run_table3(mode="paper", n_samples=2**15, seed=2005)
        failed = [r for r in result.rows if r.failure is not None]
        measured = [r for r in result.rows if r.failure is None]
        assert [r.opamp for r in failed] == ["CA3140"]
        assert np.isnan(failed[0].measured_nf_db)
        assert np.isnan(failed[0].error_db)
        assert "Y factor must exceed 1" in failed[0].failure
        assert [r.opamp for r in measured] == ["OP27", "OP07", "TL081"]
        assert all(np.isfinite(r.measured_nf_db) for r in measured)
        assert result.max_abs_error_db == max(abs(r.error_db) for r in measured)

    def test_store_backed_rerun_acquires_nothing(
        self, tmp_path, testbench_acquisitions
    ):
        engine = MeasurementEngine(store=ResultStore(tmp_path / "s"))
        first = run_table3(
            mode="paper", n_samples=2**16, seed=2005, engine=engine
        )
        assert len(testbench_acquisitions) == 8  # 4 opamps x (hot, cold)
        testbench_acquisitions.clear()
        second = run_table3(
            mode="paper", n_samples=2**16, seed=2005, engine=engine
        )
        assert testbench_acquisitions == []
        assert second.rows == first.rows


class TestFig7:
    def test_reference_constant_and_ratio_correct(self):
        result = run_fig7(FAST_SIM, seed=7)
        assert result.reference_is_constant
        assert result.rms_ratio_squared == pytest.approx(3.4931, rel=0.02)

    def test_noise_exceeds_reference(self):
        # Section 5.1: noise amplitude >= reference amplitude.
        result = run_fig7(FAST_SIM, seed=7)
        assert result.cold.noise_rms > result.cold.reference_amplitude
        assert result.hot.noise_rms > result.hot.reference_amplitude

    def test_segments_exported(self):
        result = run_fig7(FAST_SIM, segment_samples=300, seed=7)
        assert result.hot.segment.shape == (300,)


class TestFig8:
    def test_floors_similar_lines_differ(self):
        result = run_fig8(FAST_SIM, seed=8)
        # Floors nearly equal (the +/-1 stream hides the level)...
        assert result.floor_ratio_hot_over_cold == pytest.approx(1.0, abs=0.1)
        # ...while the cold reference line is much larger.
        assert result.line_ratio_cold_over_hot > 2.0


class TestFig9:
    def test_normalization_separates_floors(self):
        result = run_fig9(FAST_SIM, seed=9)
        assert result.ratio_before == pytest.approx(1.0, abs=0.15)
        assert result.ratio_after == pytest.approx(
            result.true_power_ratio, rel=0.10
        )


class TestFig10:
    def test_window_is_accurate_extremes_are_not(self):
        result = run_fig10(seed=10)
        window_err = result.max_abs_error_in_window_pct()
        assert window_err < 10.0
        # Small amplitudes fail or err badly.
        small = [p for p in result.points if p.reference_ratio <= 0.05]
        assert all(p.failed or abs(p.error_pct) > window_err for p in small)


class TestFig13:
    def test_prototype_normalized_floors_give_nf(self):
        result = run_fig13(n_samples=2**17, seed=13)
        assert result.floor_ratio_after == pytest.approx(result.bist.y, rel=0.3)
        assert abs(result.nf_error_db) < 1.5

    def test_store_backed_rerun_acquires_nothing(
        self, tmp_path, testbench_acquisitions
    ):
        engine = MeasurementEngine(store=ResultStore(tmp_path / "s"))
        first = run_fig13(n_samples=2**15, seed=13, engine=engine)
        assert len(testbench_acquisitions) == 2
        testbench_acquisitions.clear()
        second = run_fig13(n_samples=2**15, seed=13, engine=engine)
        assert testbench_acquisitions == []
        assert second.floor_ratio_after == first.floor_ratio_after
        assert second.bist.noise_figure_db == first.bist.noise_figure_db


class TestGainSensitivity:
    def test_yfactor_immune_direct_tracks_drift(self):
        result = run_gain_sensitivity(
            drifts=(0.9, 1.0, 1.1), n_samples=2**16, seed=14
        )
        assert result.max_yfactor_error_db < 0.5
        assert result.max_direct_error_db > 0.6

    def test_analytic_matches_simulated_direct(self):
        result = run_gain_sensitivity(
            drifts=(0.8, 1.2), n_samples=2**16, seed=15
        )
        for p in result.points:
            assert p.direct_error_simulated_db == pytest.approx(
                p.direct_error_analytic_db, abs=0.4
            )


class TestUncertainty:
    def test_paper_p3db_claim(self):
        result = run_uncertainty(end_to_end_n_samples=2**16, seed=16)
        for row in result.rows:
            assert row.within_p3db
            assert row.nf_std_montecarlo_db == pytest.approx(
                row.sigma_nf_analytic_db, rel=0.15
            )

    def test_end_to_end_shift_negative_and_small(self):
        result = run_uncertainty(end_to_end_n_samples=2**17, seed=17)
        for row in result.end_to_end:
            assert -0.6 < row.bias_shift_db < 0.0


class TestResources:
    def test_memory_saving_is_12x(self):
        result = run_resources(n_samples=2**16, seed=18)
        assert result.memory_saving_vs_12bit == pytest.approx(12.0, rel=0.01)

    def test_report_time_budget(self):
        result = run_resources(n_samples=2**16, seed=18)
        assert result.report.total_test_time_s > 0
        assert result.report.dsp_time_s < result.report.acquisition_time_s * 10


class TestVanVleck:
    def test_runs_and_reports_both_paths(self):
        result = run_vanvleck(ratios=(0.2, 0.5), max_lag=2500, seed=19)
        assert len(result.points) == 2
        for p in result.points:
            assert p.error_linear_pct is not None
            assert p.error_corrected_pct is not None

    def test_ratios_may_be_an_iterator(self):
        config = MatlabSimConfig(n_samples=40_000, nperseg=2000)
        from_iterator = run_vanvleck(
            ratios=(r for r in (0.15, 0.3)), config=config
        )
        from_tuple = run_vanvleck(ratios=(0.15, 0.3), config=config)
        assert len(from_iterator.points) == 2
        assert from_iterator.points == from_tuple.points
