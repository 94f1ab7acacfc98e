"""Integration tests: the full pipeline across modules.

These exercise the complete chain (noise source -> amplifiers -> 1-bit
digitizer -> Welch -> normalization -> Y-factor) at reduced record lengths
and check the paper's structural claims.
"""

import pytest

from repro import MeasurementEngine
from repro.analog.opamp import OpAmpNoiseModel
from repro.core.yfactor import YFactorMethod
from repro.digitizer.comparator import Comparator
from repro.digitizer.digitizer import OneBitDigitizer
from repro.dsp.psd import welch
from repro.instruments.testbench import build_prototype_testbench

N_FAST = 2**17
N_SLOW = 2**18


def measure(bench, rng, estimator=None):
    """One two-state measurement of ``bench`` on a compat engine."""
    if estimator is None:
        estimator = bench.make_estimator()
    return MeasurementEngine().measure(bench, estimator, rng=rng)


class TestPrototypeMeasurement:
    def test_bist_tracks_expected_nf_op27(self):
        bench = build_prototype_testbench("OP27", n_samples=N_SLOW)
        est = bench.make_estimator()
        result = measure(bench, 42, est)
        expected = bench.expected_nf_db(500.0, 1500.0)
        assert result.noise_figure_db == pytest.approx(expected, abs=1.0)

    def test_bist_and_full_adc_agree(self):
        # The 1-bit estimate must agree with the full-record Y-factor on
        # the same bench (the paper's implicit validation).
        bench = build_prototype_testbench("OP07", n_samples=N_SLOW)
        est = bench.make_estimator()
        onebit = measure(bench, 11, est)

        yf = YFactorMethod(2900.0, 290.0)
        hot = bench.analog_output("hot", rng=12)
        cold = bench.analog_output("cold", rng=13)
        spec_h = welch(hot, nperseg=8192)
        spec_c = welch(cold, nperseg=8192)
        adc = yf.from_spectra(spec_h, spec_c, 500.0, 1500.0)
        # Both estimates carry their own statistical scatter at this
        # record length (independent noise realizations).
        assert onebit.noise_figure_db == pytest.approx(
            adc.noise_figure_db, abs=1.5
        )

    def test_nf_ordering_across_opamps(self):
        # Quieter opamps must measure lower NF (paper Table 3 ordering).
        measured = {}
        for name in ("OP27", "CA3140"):
            bench = build_prototype_testbench(name, n_samples=N_FAST)
            est = bench.make_estimator()
            measured[name] = measure(bench, 21, est).noise_figure_db
        assert measured["OP27"] < measured["CA3140"] - 5.0

    def test_synthesized_target_nf_recovered(self):
        target = 10.0
        model = OpAmpNoiseModel.from_expected_nf(
            target, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
        )
        bench = build_prototype_testbench(model, n_samples=N_SLOW)
        est = bench.make_estimator()
        result = measure(bench, 31, est)
        assert result.noise_figure_db == pytest.approx(target, abs=1.0)

    def test_hot_level_bias_shifts_nf_down(self):
        # An actually-hotter source makes the DUT look quieter (eq 8).
        model = OpAmpNoiseModel.from_expected_nf(
            6.0, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
        )
        clean = build_prototype_testbench(model, n_samples=N_FAST)
        biased = build_prototype_testbench(
            model, n_samples=N_FAST, hot_level_error=0.3
        )
        nf_clean = measure(clean, 5).noise_figure_db
        nf_biased = measure(biased, 5).noise_figure_db
        assert nf_biased < nf_clean - 0.5


class TestComparatorNonidealities:
    def test_small_offset_tolerated(self):
        model = OpAmpNoiseModel.from_expected_nf(
            6.0, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
        )
        ideal_bench = build_prototype_testbench(model, n_samples=N_SLOW)
        # Offset of 10 % of the cold noise RMS at the comparator.
        offset = 0.1 * ideal_bench.predicted_output_rms("cold")
        offset_bench = build_prototype_testbench(
            model,
            n_samples=N_SLOW,
            digitizer=OneBitDigitizer(comparator=Comparator(offset_v=offset)),
        )
        nf_ideal = measure(ideal_bench, 8).noise_figure_db
        nf_offset = measure(offset_bench, 8).noise_figure_db
        assert nf_offset == pytest.approx(nf_ideal, abs=0.5)

    def test_comparator_noise_tolerated(self):
        # Comparator input noise acts like extra dither; the reference
        # normalization absorbs moderate amounts.
        model = OpAmpNoiseModel.from_expected_nf(
            6.0, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6
        )
        bench = build_prototype_testbench(model, n_samples=N_SLOW)
        noise_rms = 0.05 * bench.predicted_output_rms("cold")
        noisy_bench = build_prototype_testbench(
            model,
            n_samples=N_SLOW,
            digitizer=OneBitDigitizer(
                comparator=Comparator(input_noise_rms=noise_rms)
            ),
        )
        nf_a = measure(bench, 9).noise_figure_db
        nf_b = measure(noisy_bench, 9).noise_figure_db
        assert nf_b == pytest.approx(nf_a, abs=0.6)
