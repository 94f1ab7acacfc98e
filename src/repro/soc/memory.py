"""Capacity-limited sample memory with 1-bit packing.

A 1e6-sample 1-bit capture needs 125 kB — small enough to reuse a SoC's
existing SRAM, which is the "low cost" storage argument of the paper.  The
same record at 12-bit ADC resolution needs 1.5 MB (stored as packed 12-bit
words); :meth:`SampleMemory.words_required` exposes that comparison for
the resource bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.bitstream import PackedBitstream, packed_words_required
from repro.errors import ConfigurationError, ResourceError
from repro.signals.waveform import Waveform


@dataclass(frozen=True)
class StoredRecord:
    """Metadata of a record held in sample memory."""

    key: str
    n_samples: int
    bytes_used: int
    sample_rate_hz: float
    bits_per_sample: float


class SampleMemory:
    """Byte-addressable capture memory shared with the SoC.

    Parameters
    ----------
    capacity_bytes:
        Total memory the BIST is allowed to claim.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity must be > 0 bytes, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._records: Dict[str, Tuple[StoredRecord, PackedBitstream]] = {}

    # ------------------------------------------------------------------
    @property
    def bytes_used(self) -> int:
        """Bytes currently allocated."""
        return sum(rec.bytes_used for rec, _ in self._records.values())

    @property
    def bytes_free(self) -> int:
        """Remaining capacity."""
        return self.capacity_bytes - self.bytes_used

    def records(self) -> List[StoredRecord]:
        """Metadata of all stored records."""
        return [rec for rec, _ in self._records.values()]

    # ------------------------------------------------------------------
    @staticmethod
    def bytes_required_bits(n_samples: int) -> int:
        """Bytes to store ``n_samples`` 1-bit values (packed)."""
        return packed_words_required(n_samples)

    @staticmethod
    def words_required(n_samples: int, bits_per_sample: int) -> int:
        """Bytes to store ``n_samples`` packed multi-bit ADC words."""
        if bits_per_sample <= 0:
            raise ConfigurationError(
                f"bits_per_sample must be > 0, got {bits_per_sample}"
            )
        total_bits = n_samples * bits_per_sample
        return (total_bits + 7) // 8

    # ------------------------------------------------------------------
    def store_bitstream(
        self, key: str, bitstream: Union[Waveform, PackedBitstream]
    ) -> StoredRecord:
        """Store a +/-1 bitstream packed into memory under ``key``.

        Accepts an already-packed record
        (:class:`~repro.bitstream.PackedBitstream` — stored as-is, zero
        repack; a row of a batch acquisition is one) or a float
        waveform (packed on entry).  Raises
        :class:`ResourceError` when the packed record does not fit.
        """
        if key in self._records:
            raise ConfigurationError(f"record {key!r} already stored")
        if isinstance(bitstream, PackedBitstream):
            packed = bitstream
        else:
            packed = PackedBitstream.pack(bitstream)
        need = packed.nbytes
        if need > self.bytes_free:
            raise ResourceError(
                f"bitstream {key!r} needs {need} B but only "
                f"{self.bytes_free} B are free (capacity "
                f"{self.capacity_bytes} B)"
            )
        record = StoredRecord(
            key=key,
            n_samples=packed.n_samples,
            bytes_used=need,
            sample_rate_hz=packed.sample_rate,
            bits_per_sample=1.0,
        )
        self._records[key] = (record, packed)
        return record

    def load_packed(self, key: str) -> PackedBitstream:
        """The stored record in its native packed form (zero copy)."""
        if key not in self._records:
            raise ConfigurationError(f"no record stored under {key!r}")
        return self._records[key][1]

    def load_bitstream(self, key: str) -> Waveform:
        """Unpack a stored bitstream back into a +/-1 waveform."""
        return self.load_packed(key).to_waveform()

    def free(self, key: str) -> None:
        """Release a stored record."""
        if key not in self._records:
            raise ConfigurationError(f"no record stored under {key!r}")
        del self._records[key]

    def clear(self) -> None:
        """Release every record."""
        self._records.clear()
