"""Sampling flip-flop (the D latch in figure 6).

The comparator output is resampled by the BIST clock.  The model supports
an integer clock divider relative to the simulation rate and random
sampling jitter expressed in simulation samples.
"""

from __future__ import annotations

import numpy as np

from repro.bitstream import PackedRecordBatch, packed_words_required
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng
from repro.signals.waveform import Waveform


class SampledLatch:
    """Resamples a comparator decision stream on a divided clock.

    Parameters
    ----------
    divider:
        The latch clock is ``simulation_rate / divider`` (integer >= 1).
    jitter_rms_samples:
        RMS timing jitter in units of simulation samples; each sampling
        instant is perturbed by a rounded Gaussian offset (clipped to the
        record).
    """

    def __init__(self, divider: int = 1, jitter_rms_samples: float = 0.0):
        if not isinstance(divider, (int, np.integer)) or divider < 1:
            raise ConfigurationError(
                f"divider must be an integer >= 1, got {divider!r}"
            )
        if jitter_rms_samples < 0:
            raise ConfigurationError(
                f"jitter must be >= 0, got {jitter_rms_samples}"
            )
        self.divider = int(divider)
        self.jitter_rms_samples = float(jitter_rms_samples)

    def sample(self, decisions: Waveform, rng: GeneratorLike = None) -> Waveform:
        """Latch the decision stream on the divided clock."""
        n = decisions.n_samples
        if n == 0:
            return Waveform(np.zeros(0), decisions.sample_rate / self.divider)
        indices = np.arange(0, n, self.divider)
        if self.jitter_rms_samples > 0:
            gen = make_rng(rng)
            jitter = np.rint(
                gen.normal(0.0, self.jitter_rms_samples, size=indices.size)
            ).astype(int)
            indices = np.clip(indices + jitter, 0, n - 1)
        samples = decisions.samples[indices]
        return Waveform(samples, decisions.sample_rate / self.divider)

    def sample_batch_packed(
        self, decisions: PackedRecordBatch, rngs=None
    ) -> PackedRecordBatch:
        """Latch a packed decision batch (batch form of :meth:`sample`).

        Unpacked row ``i`` is bit-exact equal to :meth:`sample` of
        record ``i`` with ``rngs[i]`` (jitter, when enabled, draws from
        each record's generator).  Selecting latched bits happens on a
        transient one-record bit view that is repacked; the
        pass-through configuration (divider 1, no jitter) returns the
        input unchanged.
        """
        n = decisions.n_samples
        out_rate = decisions.sample_rate / self.divider
        if n == 0 or (self.divider == 1 and self.jitter_rms_samples == 0):
            if self.divider == 1:
                return decisions
            return PackedRecordBatch(
                decisions.words[:, :0], 0, out_rate,
                provenance=decisions.provenance, validate=False,
            )
        indices = np.arange(0, n, self.divider)
        if self.jitter_rms_samples == 0:
            # Per record, so the unpacked scratch stays one record wide
            # (a whole-batch unpack would cost 1 byte/sample across the
            # full stack — exactly what packing is meant to avoid).
            words = np.empty(
                (decisions.n_records, packed_words_required(indices.size)),
                dtype=np.uint8,
            )
            for i in range(decisions.n_records):
                words[i] = np.packbits(decisions[i].unpack_bits()[indices])
            return PackedRecordBatch(
                words,
                indices.size,
                out_rate,
                provenance=decisions.provenance,
                validate=False,
                copy=False,
            )
        if rngs is None:
            rngs = [None] * decisions.n_records
        else:
            rngs = list(rngs)
            if len(rngs) != decisions.n_records:
                raise ConfigurationError(
                    f"got {decisions.n_records} records but {len(rngs)} "
                    "generators"
                )
        words = np.empty(
            (decisions.n_records, packed_words_required(indices.size)),
            dtype=np.uint8,
        )
        for i, rng in enumerate(rngs):
            gen = make_rng(rng)
            jitter = np.rint(
                gen.normal(0.0, self.jitter_rms_samples, size=indices.size)
            ).astype(int)
            row_bits = decisions[i].unpack_bits()
            words[i] = np.packbits(
                row_bits[np.clip(indices + jitter, 0, n - 1)]
            )
        return PackedRecordBatch(
            words, indices.size, out_rate,
            provenance=decisions.provenance, validate=False, copy=False,
        )
