"""Unit tests for the 1-bit kernels of :mod:`repro.kernels`.

Each kernel is checked against an independent numpy expression on the
edge inputs that break bit-level code: empty input, a single word,
every byte value, 2-D input, ranges across the final-byte padding and
lengths that are not a multiple of 8.  The name lookup and the
environment report are checked as the contract ``perfbench/`` reads.
"""

import numpy as np
import pytest

import repro.kernels
from repro.errors import ConfigurationError
from repro.kernels import bernoulli_pack, popcount, registry, unpack_block

KERNELS = ("bernoulli_pack", "popcount", "unpack_block")


def _bit_counts(words):
    """Set bits per byte, by unpacking each byte to its eight bits."""
    words = np.asarray(words, dtype=np.uint8)
    return np.unpackbits(words[..., np.newaxis], axis=-1).sum(axis=-1)


class TestPopcount:
    CASES = {
        "empty": np.empty(0, dtype=np.uint8),
        "single_word": np.array([0b10110001], dtype=np.uint8),
        "every_byte": np.arange(256, dtype=np.uint8),
        "2d": np.random.default_rng(8).integers(
            0, 256, size=(4, 33), dtype=np.uint8
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_unpacked_bit_sum(self, case):
        words = self.CASES[case]
        out = popcount(words)
        assert out.shape == words.shape
        assert np.array_equal(out, _bit_counts(words))

    def test_every_byte_value_by_string_count(self):
        expected = [bin(v).count("1") for v in range(256)]
        assert popcount(np.arange(256, dtype=np.uint8)).tolist() == expected


class TestUnpackBlock:
    N = 301  # 37 full words plus 5 bits in a padded final word

    @pytest.fixture
    def record(self):
        rng = np.random.default_rng(2005)
        samples = np.where(rng.random(self.N) < 0.5, 1.0, -1.0)
        return samples, np.packbits(samples > 0)

    @pytest.mark.parametrize(
        "start,stop",
        [
            (0, N),  # whole record, padding included
            (7, 123),  # unaligned at both ends
            (295, N),  # inside the final, padded word
            (290, N),  # across the last word boundary into the padding
            (0, 0),  # empty at the start
            (64, 64),  # empty mid-record
            (N, N),  # empty at the end
        ],
    )
    def test_matches_source_samples(self, record, start, stop):
        samples, words = record
        out = unpack_block(words, start, stop)
        assert out.dtype == np.float64
        assert np.array_equal(out, samples[start:stop])

    @pytest.mark.parametrize("start,stop", [(7, 123), (290, N)])
    def test_out_buffer_is_filled_and_returned(self, record, start, stop):
        samples, words = record
        out = np.full(stop - start + 3, np.nan)
        result = unpack_block(words, start, stop, out=out)
        assert np.shares_memory(result, out)
        assert np.array_equal(result, samples[start:stop])
        assert np.array_equal(out[: stop - start], samples[start:stop])
        assert np.isnan(out[stop - start :]).all()


class TestBernoulliPack:
    @pytest.mark.parametrize("n", [1, 7, 128, 1001])
    def test_matches_lane_compare(self, n):
        rng = np.random.default_rng(n)
        raw = rng.integers(0, 2**64, size=(n + 1) // 2, dtype=np.uint64)
        thresholds = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        # Two u32 lanes per raw word, low half first.
        lanes = np.empty(2 * raw.size, dtype=np.uint64)
        lanes[0::2] = raw & np.uint64(0xFFFFFFFF)
        lanes[1::2] = raw >> np.uint64(32)
        bits = (lanes[:n] < thresholds).astype(np.uint8)
        padded = np.zeros(8 * ((n + 7) // 8), dtype=np.uint8)
        padded[:n] = bits
        weights = 1 << np.arange(7, -1, -1)
        expected = (padded.reshape(-1, 8) * weights).sum(axis=1)

        words = np.full((n + 7) // 8, 0xAA, dtype=np.uint8)
        result = bernoulli_pack(raw, thresholds, words)
        assert result is words
        assert np.array_equal(words, expected)


class TestRegistry:
    """The names ``perfbench/tracer.py`` and ``perfbench/run.py`` use."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_get_kernel_returns_package_function(self, name):
        assert registry.get_kernel(name) is getattr(repro.kernels, name)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.get_kernel("no_such_kernel")

    def test_report_shape(self):
        info = repro.kernels.report()
        assert set(info) == {"cpu_count", "numpy", "scipy", "kernel_backend"}
        assert info["kernel_backend"] == "numpy"
        assert info["cpu_count"] >= 1
        assert info["numpy"] == np.__version__
