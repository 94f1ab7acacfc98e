"""Tests for repro.digitizer.digitizer."""

import numpy as np
import pytest

from repro.digitizer.comparator import Comparator
from repro.digitizer.digitizer import OneBitDigitizer
from repro.digitizer.sampler import SampledLatch
from repro.errors import ConfigurationError
from repro.signals.sources import GaussianNoiseSource, SineSource
from repro.signals.waveform import Waveform

FS = 10000.0


class TestDigitize:
    def test_output_is_bitstream(self, rng):
        dig = OneBitDigitizer()
        sig = GaussianNoiseSource(1.0).render(1000, FS, rng)
        ref = SineSource(100.0, 0.2).render(1000, FS)
        out = dig.digitize(sig, ref)
        assert set(np.unique(out.samples)) <= {-1.0, 1.0}

    def test_sampler_divides_rate(self, rng):
        dig = OneBitDigitizer(sampler=SampledLatch(4))
        sig = GaussianNoiseSource(1.0).render(1000, FS, rng)
        ref = Waveform(np.zeros(1000), FS)
        out = dig.digitize(sig, ref)
        assert out.sample_rate == FS / 4
        assert len(out) == 250

    def test_reproducible_with_seed(self, rng):
        dig = OneBitDigitizer(comparator=Comparator(input_noise_rms=0.1))
        sig = GaussianNoiseSource(1.0).render(500, FS, 1)
        ref = Waveform(np.zeros(500), FS)
        a = dig.digitize(sig, ref, rng=7)
        b = dig.digitize(sig, ref, rng=7)
        assert a == b

    def test_default_components(self):
        dig = OneBitDigitizer()
        assert isinstance(dig.comparator, Comparator)
        assert isinstance(dig.sampler, SampledLatch)

    def test_rejects_wrong_component_types(self):
        with pytest.raises(ConfigurationError):
            OneBitDigitizer(comparator="nope")
        with pytest.raises(ConfigurationError):
            OneBitDigitizer(sampler="nope")

    def test_output_sample_rate_factor(self):
        assert OneBitDigitizer(sampler=SampledLatch(8)).output_sample_rate_factor == 0.125


class TestLevelRatio:
    def test_ratio_definition(self, rng):
        sig = GaussianNoiseSource(2.0).render(100000, FS, rng)
        ref = SineSource(100.0, 0.5).render(100000, FS)
        ratio = OneBitDigitizer.level_ratio(sig, ref)
        assert ratio == pytest.approx(0.25, rel=0.05)

    def test_zero_signal_raises(self):
        sig = Waveform(np.zeros(100), FS)
        ref = SineSource(100.0, 0.5).render(100, FS)
        with pytest.raises(ConfigurationError):
            OneBitDigitizer.level_ratio(sig, ref)


class TestFloat32Records:
    """Philox testbench records are float32; the comparator reads them
    as they are and decides exactly as on their float64 upcast."""

    N = 3 * 2**16 + 1235  # several comparator blocks and a ragged tail

    @pytest.mark.parametrize(
        "kwargs, threshold",
        [
            ({"offset_v": 0.05}, -0.05),
            ({"input_noise_rms": 1e-12}, 0.0),
            ({"hysteresis_v": 0.4}, None),
        ],
    )
    def test_float32_stack_digitizes_like_its_upcast(self, kwargs, threshold):
        # Every sample sits on the decision threshold up to float32
        # rounding (for hysteresis, on one of its two switching
        # points), so a comparator that rounded the reference to
        # float32 would decide differently on a large share of them.
        rng = np.random.default_rng(12)
        reference = 0.3 * np.sin(np.arange(self.N) / 37.0) + 1e-3
        if threshold is None:
            threshold = rng.choice([-0.2, 0.2], size=(2, self.N))
        signals = (reference + np.broadcast_to(threshold, (2, self.N))).astype(
            np.float32
        )
        digitizer = OneBitDigitizer(comparator=Comparator(**kwargs))
        packed = digitizer.digitize_batch(signals, reference, 1000.0, [5, 6])
        upcast = digitizer.digitize_batch(
            signals.astype(np.float64), reference, 1000.0, [5, 6]
        )
        assert np.array_equal(packed.words, upcast.words)

    def test_compare_batch_makes_no_float64_copy(self):
        import tracemalloc

        signals = np.random.default_rng(13).standard_normal(
            (2, 2**20), dtype=np.float32
        )
        reference = 0.1 * np.sin(np.arange(2**20) / 37.0)
        comparator = Comparator()
        comparator.compare_batch(signals, reference, sample_rate=1000.0)
        tracemalloc.start()
        try:
            comparator.compare_batch(signals, reference, sample_rate=1000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The packed words are a quarter of one float32 record; a
        # float64 copy of even one record is twice a float32 record.
        assert peak < signals[0].nbytes
