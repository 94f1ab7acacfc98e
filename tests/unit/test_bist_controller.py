"""Tests for repro.soc.bist_controller."""

import numpy as np
import pytest

from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError, ResourceError
from repro.signals.sources import GaussianNoiseSource, SquareSource
from repro.soc.bist_controller import BISTController
from repro.soc.memory import SampleMemory
from repro.soc.processor import DSPProcessor

FS = 10000.0
N = 200000


def make_estimator():
    config = BISTMeasurementConfig(
        sample_rate_hz=FS,
        n_samples=N,
        nperseg=5000,
        reference_frequency_hz=60.0,
        noise_band_hz=(100.0, 4500.0),
        harmonic_kind="odd",
    )
    return OneBitNoiseFigureBIST(config, 2900.0, 290.0)


def make_acquire(f_dut=2.0):
    te = (f_dut - 1.0) * 290.0
    ref = SquareSource(60.0, 0.2).render(N, FS)
    dig = OneBitDigitizer()

    def acquire(state, rng):
        t = 2900.0 if state == "hot" else 290.0
        sigma = np.sqrt((t + te) / (290.0 + te))
        noise = GaussianNoiseSource(sigma).render(N, FS, rng)
        return dig.digitize(noise, ref)

    return acquire


def make_controller(capacity=64 * 1024):
    return BISTController(
        make_estimator(), SampleMemory(capacity), DSPProcessor(clock_hz=100e6)
    )


class TestRun:
    def test_produces_result_and_report(self):
        controller = make_controller()
        outcome = controller.run(make_acquire(), rng=1)
        assert outcome.result.noise_figure_db == pytest.approx(3.0, abs=1.0)
        report = outcome.resources
        # Two bit-packed captures of 200000 samples = 2 x 25000 B.
        assert report.memory_bytes_peak == 50000
        assert report.dsp_cycles > 0
        assert report.acquisition_time_s == pytest.approx(2 * N / FS)
        assert report.total_test_time_s > report.acquisition_time_s

    def test_memory_released_after_run(self):
        controller = make_controller()
        controller.run(make_acquire(), rng=2)
        assert controller.memory.bytes_used == 0

    def test_memory_too_small_raises(self):
        controller = make_controller(capacity=1000)
        with pytest.raises(ResourceError):
            controller.run(make_acquire(), rng=3)

    def test_cycles_breakdown_has_psd_entries(self):
        controller = make_controller()
        outcome = controller.run(make_acquire(), rng=4)
        labels = set(outcome.resources.cycles_breakdown)
        assert any("psd_hot" in label for label in labels)
        assert any("psd_cold" in label for label in labels)

    def test_reproducible_with_seed(self):
        a = make_controller().run(make_acquire(), rng=5)
        b = make_controller().run(make_acquire(), rng=5)
        assert a.result.noise_figure_db == b.result.noise_figure_db


class TestAdcComparison:
    def test_12bit_adc_needs_12x_memory(self):
        controller = make_controller()
        onebit = 2 * SampleMemory.bytes_required_bits(N)
        assert controller.adc_alternative_memory_bytes(12) == 12 * onebit

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BISTController("est", SampleMemory(10), DSPProcessor())
        with pytest.raises(ConfigurationError):
            BISTController(make_estimator(), "mem", DSPProcessor())
        with pytest.raises(ConfigurationError):
            BISTController(make_estimator(), SampleMemory(10), "proc")
