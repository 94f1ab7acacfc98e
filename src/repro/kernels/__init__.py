"""The 1-bit kernels: plain numpy functions over packed words.

The BIST reduces every record to one bit per sample, packed
``numpy.packbits``-style (MSB first, final-byte padding zero).  Three
loops touch those words directly, and each has exactly one
implementation here, imported by its caller:

- :func:`popcount` — per-byte set-bit counts
  (:mod:`repro.dsp.bitstats`);
- :func:`unpack_block` — one FFT block of packed samples to ``+/-1``
  floats (:meth:`repro.bitstream.PackedBitstream.unpack_range`, which
  the packed Welch path calls);
- :func:`bernoulli_pack` — direct Bernoulli synthesis of packed words
  from a counter stream (:mod:`repro.signals.batch_rng`).

Kernels take raw arrays, never bitstream objects: argument validation
lives with the callers.  :func:`report` summarizes the compute
environment for perfbench.
"""

from __future__ import annotations

import numpy as np

from repro.buffers import default_pool
from repro.kernels.registry import report

__all__ = ["popcount", "unpack_block", "bernoulli_pack", "report"]

#: Set-bit counts of every byte value.
POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-byte set-bit counts by 256-entry table lookup."""
    return POPCOUNT_TABLE[np.asarray(words, dtype=np.uint8)]


def unpack_block(
    words: np.ndarray,
    start: int,
    stop: int,
    out: np.ndarray = None,
) -> np.ndarray:
    """Unpack packed-word samples ``[start, stop)`` to float64 ``+/-1``.

    ``numpy.packbits`` bit order (MSB first); bit 1 maps to ``+1.0``
    and bit 0 to ``-1.0``.  ``out`` may supply a reusable destination
    of length ``>= stop - start``.
    """
    word_lo = start // 8
    bits = np.unpackbits(
        words[word_lo : (stop + 7) // 8], count=stop - 8 * word_lo
    )[start - 8 * word_lo :]
    if out is None:
        result = bits.astype(np.float64)
    else:
        result = out[: stop - start]
        result[:] = bits
    result *= 2.0
    result -= 1.0
    return result


def bernoulli_pack(
    raw: np.ndarray, thresholds: np.ndarray, out_words: np.ndarray
) -> np.ndarray:
    """Threshold-compare one stream's counter output into packed bits.

    ``raw`` is the stream's raw ``uint64`` counter output (two u32
    lanes per word, ``>= ceil(n / 2)`` words for ``n`` thresholds); bit
    ``t`` of the output is set iff lane ``t`` is below
    ``thresholds[t]``.  Writes ``numpy.packbits``-order words into
    ``out_words`` (length ``ceil(n / 8)``, final-byte padding zero) and
    returns it.
    """
    n = thresholds.size
    bits = default_pool.take("kernels.bernoulli_bits", n, dtype=np.bool_)
    np.less(raw.view(np.uint32)[:n], thresholds, out=bits)
    out_words[:] = np.packbits(bits)
    return out_words
