"""Unit tests for the popcount bit-domain statistics kernels."""

import numpy as np
import pytest

from repro.bitstream import PackedBitstream
from repro.dsp.bitstats import (
    packed_mean,
    packed_mean_square,
    packed_ones,
    popcount,
)
from repro.errors import ConfigurationError


def _random_record(n, seed, bias=0.5):
    rng = np.random.default_rng(seed)
    samples = np.where(rng.random(n) < bias, 1.0, -1.0)
    return samples, PackedBitstream.pack(samples, 10_000.0)


class TestPopcount:
    def test_all_byte_values(self):
        words = np.arange(256, dtype=np.uint8)
        expected = np.array([bin(v).count("1") for v in range(256)])
        assert np.array_equal(popcount(words), expected)


class TestPackedMoments:
    @pytest.mark.parametrize("n", [8, 64, 1000, 12_345])
    @pytest.mark.parametrize("bias", [0.1, 0.5, 0.9])
    def test_mean_bit_identical_to_float(self, n, bias):
        samples, packed = _random_record(n, seed=n, bias=bias)
        assert packed_mean(packed) == samples.mean()

    def test_ones_count(self):
        samples, packed = _random_record(999, seed=3)
        assert packed_ones(packed) == int((samples > 0).sum())

    def test_mean_square_is_one(self):
        _, packed = _random_record(100, seed=1)
        assert packed_mean_square(packed) == 1.0

    def test_empty_record_rejected(self):
        packed = PackedBitstream.pack(np.empty(0), 10_000.0)
        with pytest.raises(ConfigurationError):
            packed_mean(packed)
        with pytest.raises(ConfigurationError):
            packed_mean_square(packed)
