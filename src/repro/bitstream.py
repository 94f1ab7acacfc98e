"""Packed 1-bit record model: the bitstream as the hardware stores it.

The paper's digitizer emits one bit per sample, and the SoC stores
captures bit-packed in shared SRAM (section 4).  Representing those
records as float64 ``+/-1`` arrays — as the seed implementation did —
costs 64x the memory of the hardware format and dominates the transport
cost of multiprocess sweeps (pickling 8 MB per paper-scale record).

:class:`PackedBitstream` is the first-class packed record type: 8
samples per byte (``numpy.packbits`` order), bit ``1`` for ``+1`` and
bit ``0`` for ``-1``, carrying the sample rate.
:class:`PackedRecordBatch` is the stacked form the measurement engine
acquires, stores and analyzes.  Both unpack to the exact float64
``+/-1`` arrays the serial float path produces, so every consumer
(Welch kernels, normalization, Y-factor) sees bit-identical values;
blocked access (:meth:`PackedBitstream.unpack_range`,
:meth:`PackedBitstream.iter_blocks`) lets the DSP layer keep peak
memory at ~1 bit per stored sample by unpacking only one FFT block at
a time.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import unpack_block
from repro.signals.waveform import Waveform


def packed_words_required(n_samples: int) -> int:
    """Bytes needed to store ``n_samples`` 1-bit values (8 per byte)."""
    if n_samples < 0:
        raise ConfigurationError(f"n_samples must be >= 0, got {n_samples}")
    return (n_samples + 7) // 8


def _tail_mask(n_samples: int) -> int:
    """Bitmask of the valid (leading) bits in the final packed word."""
    used = n_samples % 8
    if used == 0:
        return 0xFF
    return (0xFF << (8 - used)) & 0xFF


def _as_sign_array(samples) -> np.ndarray:
    """Validate a +/-1 record of any numeric dtype, returned as-is."""
    arr = np.asarray(samples)
    if arr.dtype == bool:
        raise ConfigurationError(
            "boolean arrays are ambiguous for +/-1 bitstreams; convert "
            "explicitly (True->+1, False->-1) before packing"
        )
    if not np.all(np.abs(arr) == 1):
        bad = np.unique(np.asarray(arr, dtype=float)[np.abs(arr) != 1])
        raise ConfigurationError(
            f"bitstream must contain only +/-1 values, found {bad[:5]}"
        )
    return arr


class PackedBitstream:
    """An immutable 1-bit record stored 8 samples per byte.

    Parameters
    ----------
    words:
        ``uint8`` array of packed samples (``numpy.packbits`` bit
        order); padding bits beyond ``n_samples`` must be zero.
    n_samples:
        Number of valid samples.
    sample_rate:
        Sample rate in Hz.
    """

    __slots__ = ("words", "n_samples", "sample_rate")

    def __init__(
        self,
        words: np.ndarray,
        n_samples: int,
        sample_rate: float,
        validate: bool = True,
        copy: Optional[bool] = None,
    ):
        arr = np.asarray(words, dtype=np.uint8)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"packed words must be 1-D, got shape {arr.shape}"
            )
        n_samples = int(n_samples)
        if n_samples < 0:
            raise ConfigurationError(
                f"n_samples must be >= 0, got {n_samples}"
            )
        if arr.size != packed_words_required(n_samples):
            raise ConfigurationError(
                f"{n_samples} samples need {packed_words_required(n_samples)}"
                f" packed words, got {arr.size}"
            )
        if not np.isfinite(sample_rate) or sample_rate <= 0:
            raise ConfigurationError(
                f"sample_rate must be a positive finite number, got "
                f"{sample_rate!r}"
            )
        # Own the buffer so the record cannot drift under a caller's
        # writes; ``copy=False`` is the internal escape hatch for fresh
        # private arrays.  Either way the held array is frozen.
        if copy is None:
            copy = arr.flags.writeable and arr is words
        if copy:
            arr = arr.copy()
        if arr.flags.writeable:
            arr = arr.view()
            arr.setflags(write=False)
        object.__setattr__(self, "words", arr)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "sample_rate", float(sample_rate))
        if validate:
            self.validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("PackedBitstream is immutable")

    def __getstate__(self):
        return (self.words, self.n_samples, self.sample_rate)

    def __setstate__(self, state):
        # The immutability __setattr__ breaks the default slots
        # protocol, so restore (and re-freeze the unpickled words)
        # explicitly — records travel through the engine's process
        # backend by pickle.
        words, n_samples, sample_rate = state
        arr = np.asarray(words, dtype=np.uint8)
        if arr.flags.writeable:
            arr.setflags(write=False)
        object.__setattr__(self, "words", arr)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "sample_rate", sample_rate)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        signal: Union[Waveform, np.ndarray, Sequence[float]],
        sample_rate: Optional[float] = None,
    ) -> "PackedBitstream":
        """Pack a ``+/-1`` record (Waveform or array) into 1 bit/sample."""
        if isinstance(signal, Waveform):
            samples, rate = signal.samples, signal.sample_rate
        else:
            samples = np.asarray(signal)
            if samples.ndim != 1:
                raise ConfigurationError(
                    f"record must be 1-D, got shape {samples.shape}"
                )
            if sample_rate is None:
                raise ConfigurationError(
                    "sample_rate must be provided for raw arrays"
                )
            rate = float(sample_rate)
        samples = _as_sign_array(samples)
        words = np.packbits(samples > 0)
        return cls(
            words, samples.size, rate, validate=False, copy=False
        )

    @classmethod
    def from_bits(
        cls,
        bits: np.ndarray,
        sample_rate: float,
    ) -> "PackedBitstream":
        """Pack an already-thresholded 0/1 (or boolean) bit array."""
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ConfigurationError(f"bits must be 1-D, got shape {arr.shape}")
        return cls(
            np.packbits(arr != 0),
            arr.size,
            sample_rate,
            validate=False,
            copy=False,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of packed storage (the real record footprint)."""
        return self.words.nbytes

    @property
    def duration(self) -> float:
        """Record length in seconds."""
        return self.n_samples / self.sample_rate

    def __len__(self) -> int:
        return self.n_samples

    def __eq__(self, other):
        if not isinstance(other, PackedBitstream):
            return NotImplemented
        return (
            self.n_samples == other.n_samples
            and self.sample_rate == other.sample_rate
            and bool(np.all(self.words == other.words))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedBitstream(n={self.n_samples}, fs={self.sample_rate:g} Hz, "
            f"{self.nbytes} B)"
        )

    def validate(self) -> None:
        """Check the packed invariant: padding bits are zero.

        Any packed word decodes to valid ``+/-1`` samples, so the only
        corruption a packed record can carry is nonzero padding in the
        final word (which would silently shift a round-trip).  This is
        the packed-domain counterpart of the float ``|x| == 1`` check —
        O(1) instead of O(n), no unpack round-trip.
        """
        if self.n_samples == 0 or self.n_samples % 8 == 0:
            return
        tail = int(self.words[-1])
        if tail & ~_tail_mask(self.n_samples) & 0xFF:
            raise ConfigurationError(
                f"packed bitstream has nonzero padding bits in the final "
                f"word (0x{tail:02x} with {self.n_samples % 8} valid bits)"
            )

    # ------------------------------------------------------------------
    # Unpacking
    # ------------------------------------------------------------------
    def unpack_bits(self) -> np.ndarray:
        """The raw 0/1 bits as ``uint8`` (1 byte/sample scratch)."""
        return np.unpackbits(self.words, count=self.n_samples)

    def unpack(self) -> np.ndarray:
        """The full record as a float64 ``+/-1`` array.

        Bit-exact inverse of :meth:`pack`: bit 1 -> ``+1.0``, bit 0 ->
        ``-1.0``.
        """
        out = self.unpack_bits().astype(np.float64)
        out *= 2.0
        out -= 1.0
        return out

    def unpack_range(
        self,
        start: int,
        stop: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Unpack samples ``[start, stop)`` to float64 ``+/-1``.

        This is the blocked-access primitive the packed Welch uses:
        only the requested window is materialized, so a full-record PSD
        never holds more than one FFT block of floats.  ``out`` may
        supply a reusable destination buffer of length
        ``>= stop - start``.  Validates the range, then runs
        :func:`repro.kernels.unpack_block`.
        """
        if not 0 <= start <= stop <= self.n_samples:
            raise ConfigurationError(
                f"invalid range [{start}, {stop}) for {self.n_samples} samples"
            )
        if out is not None and out.shape[0] < stop - start:
            raise ConfigurationError(
                f"out buffer has {out.shape[0]} samples, need {stop - start}"
            )
        return unpack_block(self.words, start, stop, out=out)

    def iter_blocks(self, block_samples: int) -> Iterator[np.ndarray]:
        """Yield successive float64 ``+/-1`` blocks of the record."""
        if block_samples < 1:
            raise ConfigurationError(
                f"block_samples must be >= 1, got {block_samples}"
            )
        for start in range(0, self.n_samples, block_samples):
            yield self.unpack_range(
                start, min(start + block_samples, self.n_samples)
            )

    def to_waveform(self) -> Waveform:
        """The record as a float ``+/-1`` :class:`Waveform`."""
        return Waveform(self.unpack(), self.sample_rate)


class PackedRecordBatch:
    """A stack of equal-length packed records sharing one sample rate.

    The batched counterpart of :class:`PackedBitstream` — ``words`` is
    ``(n_records, n_words)`` ``uint8`` — and the transport format of
    the measurement engine's process backend: at paper scale a row is
    125 kB instead of the 8 MB float64 record.
    """

    __slots__ = ("words", "n_samples", "sample_rate")

    def __init__(
        self,
        words: np.ndarray,
        n_samples: int,
        sample_rate: float,
        validate: bool = True,
        copy: Optional[bool] = None,
    ):
        arr = np.asarray(words, dtype=np.uint8)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"packed batch words must be 2-D, got shape {arr.shape}"
            )
        n_samples = int(n_samples)
        if arr.shape[1] != packed_words_required(n_samples):
            raise ConfigurationError(
                f"{n_samples} samples need {packed_words_required(n_samples)}"
                f" packed words per record, got {arr.shape[1]}"
            )
        # Own the buffer so the validated batch cannot drift under a
        # caller's writes.  ``copy=False`` is the internal/zero-copy
        # escape hatch (fresh private arrays, read-only views);
        # either way the held array is frozen.
        if copy is None:
            copy = arr.flags.writeable and arr is words
        if copy:
            arr = arr.copy()
        if arr.flags.writeable:
            arr = arr.view()
            arr.setflags(write=False)
        if not np.isfinite(sample_rate) or sample_rate <= 0:
            raise ConfigurationError(
                f"sample_rate must be a positive finite number, got "
                f"{sample_rate!r}"
            )
        object.__setattr__(self, "words", arr)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "sample_rate", float(sample_rate))
        if validate:
            self.validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("PackedRecordBatch is immutable")

    def __getstate__(self):
        return (self.words, self.n_samples, self.sample_rate)

    def __setstate__(self, state):
        words, n_samples, sample_rate = state
        arr = np.asarray(words, dtype=np.uint8)
        if arr.flags.writeable:
            arr.setflags(write=False)
        object.__setattr__(self, "words", arr)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "sample_rate", sample_rate)

    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        records: np.ndarray,
        sample_rate: float,
    ) -> "PackedRecordBatch":
        """Pack a ``(n_records, n_samples)`` ``+/-1`` stack."""
        arr = np.asarray(records)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"records must be 2-D, got shape {arr.shape}"
            )
        arr = _as_sign_array(arr)
        words = np.packbits(arr > 0, axis=-1)
        return cls(
            words, arr.shape[1], sample_rate, validate=False, copy=False
        )

    @classmethod
    def from_records(
        cls, records: Sequence[PackedBitstream]
    ) -> "PackedRecordBatch":
        """Stack individual packed records (equal length and rate)."""
        records = list(records)
        if not records:
            raise ConfigurationError("cannot stack an empty record list")
        first = records[0]
        for rec in records[1:]:
            if rec.n_samples != first.n_samples:
                raise ConfigurationError(
                    f"record length mismatch: {first.n_samples} vs "
                    f"{rec.n_samples} samples"
                )
            if rec.sample_rate != first.sample_rate:
                raise ConfigurationError(
                    f"sample-rate mismatch: {first.sample_rate} vs "
                    f"{rec.sample_rate} Hz"
                )
        return cls(
            np.vstack([rec.words for rec in records]),
            first.n_samples,
            first.sample_rate,
            validate=False,
            copy=False,
        )

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        """Number of stacked records."""
        return self.words.shape[0]

    @property
    def nbytes(self) -> int:
        """Total packed bytes across the batch."""
        return self.words.nbytes

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_records, n_samples)`` — the logical (unpacked) shape."""
        return (self.words.shape[0], self.n_samples)

    def __len__(self) -> int:
        return self.words.shape[0]

    def __getitem__(self, index: int) -> PackedBitstream:
        return PackedBitstream(
            self.words[index], self.n_samples, self.sample_rate, validate=False
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedRecordBatch(records={self.n_records}, "
            f"n={self.n_samples}, fs={self.sample_rate:g} Hz, "
            f"{self.nbytes} B)"
        )

    def validate(self) -> None:
        """Check zero padding bits on every record (no unpack)."""
        if self.n_samples == 0 or self.n_samples % 8 == 0:
            return
        bad = self.words[:, -1] & (~_tail_mask(self.n_samples) & 0xFF)
        if np.any(bad):
            rows = np.nonzero(bad)[0]
            raise ConfigurationError(
                f"packed batch has nonzero padding bits in record(s) "
                f"{rows[:5].tolist()}"
            )

    def records(self) -> List[PackedBitstream]:
        """All rows as individual :class:`PackedBitstream` objects."""
        return [self[i] for i in range(self.n_records)]

    def unpack(self) -> np.ndarray:
        """The whole batch as a ``(n_records, n_samples)`` float64 stack.

        Materializes the full float representation — use
        :meth:`__getitem__` plus blocked access when peak memory
        matters.
        """
        bits = np.unpackbits(self.words, axis=-1, count=self.n_samples)
        out = bits.astype(np.float64)
        out *= 2.0
        out -= 1.0
        return out


#: Anything the packed-aware layers accept as a record stack.
RecordsLike = Union[np.ndarray, PackedRecordBatch]


def is_packed(records) -> bool:
    """True when ``records`` is a packed record or batch."""
    return isinstance(records, (PackedBitstream, PackedRecordBatch))
