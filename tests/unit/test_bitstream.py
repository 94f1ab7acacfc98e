"""Tests for repro.bitstream — the packed 1-bit record model."""

import numpy as np
import pytest

from repro.bitstream import (
    PackedBitstream,
    PackedRecordBatch,
    is_packed,
    packed_words_required,
)
from repro.errors import ConfigurationError
from repro.signals.waveform import Waveform


def random_record(rng, n):
    return np.where(rng.random(n) > 0.5, 1.0, -1.0)


class TestPackUnpackRoundtrip:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 1000, 1023, 4096])
    def test_roundtrip_all_tail_lengths(self, rng, n):
        x = random_record(rng, n)
        packed = PackedBitstream.pack(x, 100.0)
        assert packed.n_samples == n
        assert packed.nbytes == packed_words_required(n)
        assert np.array_equal(packed.unpack(), x)

    def test_roundtrip_from_waveform(self, rng):
        wave = Waveform(random_record(rng, 333), 10000.0)
        packed = PackedBitstream.pack(wave)
        back = packed.to_waveform()
        assert back == wave

    def test_waveform_to_packed_roundtrip(self, rng):
        wave = Waveform(random_record(rng, 77), 10000.0)
        packed = wave.to_packed()
        assert isinstance(packed, PackedBitstream)
        assert packed.to_waveform() == wave
        with pytest.raises(ConfigurationError):
            Waveform(rng.normal(size=8), 1.0).to_packed()

    def test_unpack_is_float64_pm1(self, rng):
        packed = PackedBitstream.pack(random_record(rng, 100), 1.0)
        out = packed.unpack()
        assert out.dtype == np.float64
        assert set(np.unique(out)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int8, np.int64])
    def test_pack_accepts_any_sign_dtype(self, rng, dtype):
        x = random_record(rng, 57).astype(dtype)
        packed = PackedBitstream.pack(x, 1.0)
        assert np.array_equal(packed.unpack(), x.astype(np.float64))

    def test_bool_input_rejected(self):
        with pytest.raises(ConfigurationError):
            PackedBitstream.pack(np.ones(8, dtype=bool), 1.0)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, np.nan])
    def test_non_sign_values_rejected(self, bad):
        x = np.ones(16)
        x[5] = bad
        with pytest.raises(ConfigurationError):
            PackedBitstream.pack(x, 1.0)

    def test_from_bits_matches_threshold(self, rng):
        x = random_record(rng, 41)
        packed = PackedBitstream.from_bits(x > 0, 1.0)
        assert np.array_equal(packed.unpack(), x)

    def test_empty_record(self):
        packed = PackedBitstream.pack(np.empty(0), 1.0)
        assert packed.n_samples == 0
        assert packed.unpack().size == 0


class TestBlockedAccess:
    def test_unpack_range_matches_slices(self, rng):
        n = 1003
        x = random_record(rng, n)
        packed = PackedBitstream.pack(x, 1.0)
        # Windows crossing every kind of word boundary.
        for start, stop in [
            (0, n), (0, 8), (3, 11), (7, 9), (8, 16), (5, 5 + 64),
            (n - 3, n), (0, 1), (512, 777),
        ]:
            assert np.array_equal(
                packed.unpack_range(start, stop), x[start:stop]
            ), (start, stop)

    def test_unpack_range_into_out_buffer(self, rng):
        x = random_record(rng, 100)
        packed = PackedBitstream.pack(x, 1.0)
        out = np.empty(64)
        view = packed.unpack_range(3, 50, out=out)
        assert view.base is out or view is out[:47]
        assert np.array_equal(view, x[3:50])

    def test_unpack_range_validates(self, rng):
        packed = PackedBitstream.pack(random_record(rng, 10), 1.0)
        with pytest.raises(ConfigurationError):
            packed.unpack_range(-1, 5)
        with pytest.raises(ConfigurationError):
            packed.unpack_range(3, 11)
        with pytest.raises(ConfigurationError):
            packed.unpack_range(5, 8, out=np.empty(2))

    @pytest.mark.parametrize("block", [1, 7, 8, 64, 1000, 5000])
    def test_iter_blocks_reassembles(self, rng, block):
        x = random_record(rng, 1001)
        packed = PackedBitstream.pack(x, 1.0)
        assert np.array_equal(
            np.concatenate(list(packed.iter_blocks(block))), x
        )


class TestValidation:
    def test_padding_bits_checked_without_unpack(self):
        # 5 valid samples, but padding bits set in the final word.
        with pytest.raises(ConfigurationError):
            PackedBitstream(np.array([0b10101111], dtype=np.uint8), 5, 1.0)
        # The same word is fine when all 8 bits are valid samples.
        PackedBitstream(np.array([0b10101111], dtype=np.uint8), 8, 1.0)

    def test_word_count_checked(self):
        with pytest.raises(ConfigurationError):
            PackedBitstream(np.zeros(2, dtype=np.uint8), 5, 1.0)

    def test_sample_rate_checked(self):
        with pytest.raises(ConfigurationError):
            PackedBitstream(np.zeros(1, dtype=np.uint8), 8, 0.0)

    def test_immutable(self, rng):
        packed = PackedBitstream.pack(random_record(rng, 16), 1.0)
        with pytest.raises(AttributeError):
            packed.n_samples = 3
        with pytest.raises(ValueError):
            packed.words[0] = 0


class TestPackedRecordBatch:
    def test_roundtrip_and_getitem(self, rng):
        records = np.where(rng.random((5, 37)) > 0.5, 1.0, -1.0)
        batch = PackedRecordBatch.pack(records, 10.0)
        assert batch.n_records == 5
        assert batch.shape == (5, 37)
        assert np.array_equal(batch.unpack(), records)
        for i in range(5):
            assert np.array_equal(batch[i].unpack(), records[i])
            assert batch[i].sample_rate == 10.0

    def test_from_records_stacks(self, rng):
        singles = [
            PackedBitstream.pack(random_record(rng, 21), 5.0)
            for _ in range(3)
        ]
        batch = PackedRecordBatch.from_records(singles)
        for i, single in enumerate(singles):
            assert batch[i] == single

    def test_from_records_checks_compatibility(self, rng):
        a = PackedBitstream.pack(random_record(rng, 8), 5.0)
        b = PackedBitstream.pack(random_record(rng, 9), 5.0)
        c = PackedBitstream.pack(random_record(rng, 8), 6.0)
        with pytest.raises(ConfigurationError):
            PackedRecordBatch.from_records([a, b])
        with pytest.raises(ConfigurationError):
            PackedRecordBatch.from_records([a, c])
        with pytest.raises(ConfigurationError):
            PackedRecordBatch.from_records([])

    def test_batch_validation_names_bad_rows(self):
        words = np.zeros((3, 1), dtype=np.uint8)
        words[1, 0] = 0b00000111  # padding bits set for n_samples=5
        with pytest.raises(ConfigurationError, match=r"\[1\]"):
            PackedRecordBatch(words, 5, 1.0)

    def test_nbytes_is_64x_below_float(self, rng):
        records = np.where(rng.random((4, 8000)) > 0.5, 1.0, -1.0)
        batch = PackedRecordBatch.pack(records, 1.0)
        assert records.nbytes / batch.nbytes == 64.0

    def test_batch_owns_its_words(self):
        words = np.zeros((2, 2), dtype=np.uint8)
        batch = PackedRecordBatch(words, 11, 1.0)
        words[0, -1] |= 0x1F  # corrupt the caller's buffer afterwards
        batch.validate()  # the batch holds its own frozen copy
        assert batch.words[0, -1] == 0
        with pytest.raises(ValueError):
            batch.words[0, 0] = 1


class TestPickle:
    def test_record_roundtrip(self, rng):
        import pickle

        packed = PackedBitstream.pack(random_record(rng, 1001), 1e4)
        back = pickle.loads(pickle.dumps(packed))
        assert back == packed
        assert not back.words.flags.writeable

    def test_batch_roundtrip(self, rng):
        import pickle

        batch = PackedRecordBatch.pack(
            np.where(rng.random((3, 37)) > 0.5, 1.0, -1.0), 5.0
        )
        back = pickle.loads(pickle.dumps(batch))
        assert np.array_equal(back.words, batch.words)
        assert back.n_samples == batch.n_samples
        assert back.sample_rate == batch.sample_rate
        back.validate()


def test_is_packed_helper(rng):
    packed = PackedBitstream.pack(random_record(rng, 8), 1.0)
    assert is_packed(packed)
    assert is_packed(PackedRecordBatch.from_records([packed]))
    assert not is_packed(np.ones(8))
