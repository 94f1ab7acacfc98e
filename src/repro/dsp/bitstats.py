"""Bit-domain statistics of packed 1-bit records (popcount kernels).

A ±1 bitstream's first and second moments are pure bit counts: with
``k`` set bits among ``n`` samples the sum is exactly ``2k - n`` and
the mean square is exactly ``1``.  Both are therefore computable on the
*packed words* — one popcount pass over 1/64th of the float data — and,
crucially, the popcount mean is **bit-identical** to ``numpy.mean`` of
the unpacked float record: the float sum of ±1 values is an integer of
magnitude ``<= n << 2**53``, so pairwise summation commits no rounding
and both paths divide the same exact integer by the same ``n``.

:func:`popcount` is the table-lookup kernel of :mod:`repro.kernels`.
"""

from __future__ import annotations

from repro.bitstream import PackedBitstream
from repro.errors import ConfigurationError
from repro.kernels import popcount

__all__ = [
    "popcount",
    "packed_ones",
    "packed_mean",
    "packed_mean_square",
]


def packed_ones(packed: PackedBitstream) -> int:
    """Total set bits of a packed record (padding bits are zero)."""
    return int(popcount(packed.words).sum())


def packed_mean(packed: PackedBitstream) -> float:
    """Mean of the ±1 record, computed on the packed words.

    Bit-identical to ``packed.unpack().mean()``: both reduce to the
    exact integer ``2k - n`` divided by ``n``.
    """
    if packed.n_samples == 0:
        raise ConfigurationError("mean of an empty record is undefined")
    n = packed.n_samples
    return (2.0 * packed_ones(packed) - n) / n


def packed_mean_square(packed: PackedBitstream) -> float:
    """Mean square of the ±1 record — exactly 1 by construction."""
    if packed.n_samples == 0:
        raise ConfigurationError("mean square of an empty record is undefined")
    return 1.0
