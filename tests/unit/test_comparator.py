"""Tests for repro.digitizer.comparator."""

import threading

import numpy as np
import pytest

from repro.buffers import default_pool
from repro.digitizer.comparator import COMPARE_BLOCK, Comparator
from repro.errors import ConfigurationError
from repro.signals.random import spawn_rngs
from repro.signals.waveform import Waveform


def wf(values, fs=1000.0):
    return Waveform(values, fs)


class TestIdealComparator:
    def test_sign_of_difference(self):
        comp = Comparator()
        out = comp.compare(wf([1.0, -1.0, 0.5]), wf([0.0, 0.0, 1.0]))
        assert np.allclose(out.samples, [1.0, -1.0, -1.0])

    def test_output_is_pm_one_only(self, rng):
        comp = Comparator()
        sig = wf(rng.normal(size=1000))
        ref = wf(rng.normal(size=1000))
        out = comp.compare(sig, ref)
        assert set(np.unique(out.samples)) <= {-1.0, 1.0}

    def test_tie_resolves_positive(self):
        out = Comparator().compare(wf([0.5]), wf([0.5]))
        assert out.samples[0] == 1.0

    def test_preserves_sample_rate(self):
        out = Comparator().compare(wf([1.0], 44100.0), wf([0.0], 44100.0))
        assert out.sample_rate == 44100.0

    def test_rate_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            Comparator().compare(wf([1.0], 100.0), wf([0.0], 200.0))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            Comparator().compare(wf([1.0, 2.0]), wf([0.0]))


class TestOffset:
    def test_positive_offset_biases_high(self):
        comp = Comparator(offset_v=0.2)
        out = comp.compare(wf([-0.1]), wf([0.0]))
        assert out.samples[0] == 1.0

    def test_offset_shifts_duty_cycle(self, rng):
        sig = wf(rng.normal(0.0, 1.0, size=50000))
        ref = wf(np.zeros(50000))
        balanced = Comparator().compare(sig, ref)
        biased = Comparator(offset_v=0.5).compare(sig, ref)
        assert np.mean(biased.samples) > np.mean(balanced.samples) + 0.2


class TestInputNoise:
    def test_noise_randomizes_marginal_decisions(self):
        comp = Comparator(input_noise_rms=1.0)
        sig = wf(np.zeros(10000))
        ref = wf(np.full(10000, 0.01))
        out = comp.compare(sig, ref, rng=3)
        # Without noise all decisions would be -1; with 1 V RMS noise the
        # split is nearly 50/50.
        assert abs(np.mean(out.samples)) < 0.05

    def test_noise_reproducible_with_seed(self, rng):
        comp = Comparator(input_noise_rms=0.5)
        sig = wf(np.zeros(100))
        ref = wf(np.zeros(100))
        a = comp.compare(sig, ref, rng=9)
        b = comp.compare(sig, ref, rng=9)
        assert a == b

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            Comparator(input_noise_rms=-0.1)


class TestHysteresis:
    def test_holds_state_within_window(self):
        comp = Comparator(hysteresis_v=1.0)
        # Start high, small dips below zero stay high.
        sig = wf([1.0, -0.2, -0.4, -0.6, 1.0])
        ref = wf(np.zeros(5))
        out = comp.compare(sig, ref)
        assert np.allclose(out.samples, [1.0, 1.0, 1.0, -1.0, 1.0])

    def test_switches_beyond_half_window(self):
        comp = Comparator(hysteresis_v=0.4)
        sig = wf([1.0, -0.3, 0.3, -0.3])
        ref = wf(np.zeros(4))
        out = comp.compare(sig, ref)
        assert np.allclose(out.samples, [1.0, -1.0, 1.0, -1.0])

    def test_zero_hysteresis_matches_vectorized_path(self, rng):
        sig = wf(rng.normal(size=500))
        ref = wf(np.zeros(500))
        fast = Comparator().compare(sig, ref)
        slow = Comparator(hysteresis_v=0.0).compare(sig, ref)
        assert fast == slow

    def test_rejects_negative_hysteresis(self):
        with pytest.raises(ConfigurationError):
            Comparator(hysteresis_v=-0.1)


class TestBlockedBatch:
    """``compare_batch`` works in blocks of ``COMPARE_BLOCK`` samples."""

    N = 2 * COMPARE_BLOCK + 1235  # several blocks and a ragged tail

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"offset_v": 0.05},
            {"input_noise_rms": 0.3},
            {"hysteresis_v": 0.4},
            {"offset_v": -0.1, "input_noise_rms": 0.2, "hysteresis_v": 0.1},
        ],
    )
    def test_rows_equal_scalar_compare(self, kwargs):
        rng = np.random.default_rng(11)
        signals = rng.normal(size=(2, self.N))
        reference = 0.2 * np.sin(np.arange(self.N) / 50.0)
        comp = Comparator(**kwargs)
        packed = comp.compare_batch(
            signals, reference, spawn_rngs(4, 2), sample_rate=1000.0
        )
        for i, gen in enumerate(spawn_rngs(4, 2)):
            scalar = comp.compare(wf(signals[i]), wf(reference), gen)
            assert np.array_equal(packed[i].unpack(), scalar.samples)

    def test_scratch_is_one_block(self):
        held = []

        def run():
            # A new thread may take over the pool of one that has ended.
            default_pool.clear()
            Comparator(input_noise_rms=0.1).compare_batch(
                np.zeros((1, 1_000_000)), np.zeros(1_000_000), [1],
                sample_rate=1000.0,
            )
            held.append(default_pool.nbytes)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert 0 < held[0] <= COMPARE_BLOCK * 8
