"""Voltage comparator model.

The ideal comparator outputs ``sign(signal - reference)``; the model adds
the non-idealities that matter for a BIST cell on silicon: input-referred
offset, input noise and hysteresis.  Hysteresis makes the decision
state-dependent, so that path is evaluated sequentially; the common
zero-hysteresis case is fully vectorized.

The scalar :meth:`Comparator.compare` emits float ``+/-1`` decisions
(the serial reference); the batch :meth:`Comparator.compare_batch`
emits them bit-packed — one bit per decision, exactly what the hardware
flip-flop chain stores.  Both threshold the same comparison, so an
unpacked batch row equals the scalar decisions bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.bitstream import PackedRecordBatch, packed_words_required
from repro.buffers import default_pool
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng
from repro.signals.waveform import Waveform

#: Samples per block of :meth:`Comparator.compare_batch` (a multiple of
#: 8, so every block but a record's last packs to whole words).
COMPARE_BLOCK = 1 << 16


class Comparator:
    """A voltage comparator with offset, input noise and hysteresis.

    Parameters
    ----------
    offset_v:
        Input-referred offset voltage added to the comparison.
    input_noise_rms:
        RMS of the comparator's own input-referred noise (adds to the
        dither already present in the signal path).
    hysteresis_v:
        Full hysteresis width; the switching thresholds sit at
        ``+/- hysteresis_v / 2`` around the nominal crossing.
    """

    def __init__(
        self,
        offset_v: float = 0.0,
        input_noise_rms: float = 0.0,
        hysteresis_v: float = 0.0,
    ):
        if input_noise_rms < 0:
            raise ConfigurationError(
                f"input noise RMS must be >= 0, got {input_noise_rms}"
            )
        if hysteresis_v < 0:
            raise ConfigurationError(
                f"hysteresis must be >= 0, got {hysteresis_v}"
            )
        self.offset_v = float(offset_v)
        self.input_noise_rms = float(input_noise_rms)
        self.hysteresis_v = float(hysteresis_v)

    def compare(
        self,
        signal: Waveform,
        reference: Waveform,
        rng: GeneratorLike = None,
    ) -> Waveform:
        """Return the +/-1 comparator decision stream.

        ``signal`` and ``reference`` must share sample rate and length.
        Exact zero differences resolve to +1 (deterministic tie-break).
        """
        if signal.sample_rate != reference.sample_rate:
            raise ConfigurationError(
                "signal/reference sample-rate mismatch: "
                f"{signal.sample_rate} vs {reference.sample_rate} Hz"
            )
        if signal.n_samples != reference.n_samples:
            raise ConfigurationError(
                "signal/reference length mismatch: "
                f"{signal.n_samples} vs {reference.n_samples} samples"
            )
        diff = signal.samples - reference.samples + self.offset_v
        if self.input_noise_rms > 0:
            gen = make_rng(rng)
            diff = diff + gen.normal(0.0, self.input_noise_rms, size=diff.size)

        if self.hysteresis_v == 0.0:
            bits = np.where(diff >= 0.0, 1.0, -1.0)
        else:
            state = 1.0 if diff.size and diff[0] >= 0.0 else -1.0
            bits, _ = self._schmitt(diff, state)
        return Waveform(bits, signal.sample_rate)

    def compare_batch(
        self,
        signals: np.ndarray,
        reference: np.ndarray,
        rngs=None,
        *,
        sample_rate: float,
    ) -> PackedRecordBatch:
        """Batch decision: stacked signals against a reference.

        ``signals`` is ``(n_records, n_samples)``; ``reference`` is a
        1-D array broadcast across records, or a ``(n_records,
        n_samples)`` stack supplying one reference row per record (the
        multi-device case, where each DUT's bench sizes its own
        reference amplitude).  The decisions come back as a
        :class:`~repro.bitstream.PackedRecordBatch` (1 bit/decision,
        carrying ``sample_rate``); unpacked row ``i`` is bit-exact equal
        to the scalar :meth:`compare` of record ``i`` with ``rngs[i]``
        (the comparator's own input noise, when enabled, draws from
        each record's generator).  The input is never modified.  A
        float32 stack (philox testbench records) is read as it is, not
        copied: each block's subtraction upcasts it element by element,
        which is exact, so its decisions are those of its float64
        upcast.  Any other input is read as float64.

        Records are processed row by row, each in blocks of
        :data:`COMPARE_BLOCK` samples through one pooled scratch block:
        subtract, offset, input noise (blocked draws replay the record's
        one-shot ``normal`` stream) and pack.  The block is a multiple
        of 8, so each block packs to whole words, and the Schmitt
        trigger carries its state from block to block.  Scratch stays
        one block per thread, however long the record.
        """
        sig = np.asarray(signals)
        if sig.dtype != np.float32:
            sig = np.asarray(sig, dtype=float)
        ref = np.asarray(reference, dtype=float)
        if sig.ndim != 2 or ref.ndim not in (1, 2):
            raise ConfigurationError(
                f"need (n_records, n) signals and 1-D or 2-D reference, got "
                f"{sig.shape} and {ref.shape}"
            )
        if ref.ndim == 2 and ref.shape[0] != sig.shape[0]:
            raise ConfigurationError(
                f"got {sig.shape[0]} records but {ref.shape[0]} reference "
                "rows"
            )
        if sig.shape[-1] != ref.shape[-1]:
            raise ConfigurationError(
                "signal/reference length mismatch: "
                f"{sig.shape[-1]} vs {ref.shape[-1]} samples"
            )
        if rngs is None:
            rngs = [None] * sig.shape[0]
        else:
            rngs = list(rngs)
            if len(rngs) != sig.shape[0]:
                raise ConfigurationError(
                    f"got {sig.shape[0]} records but {len(rngs)} generators"
                )
        n = sig.shape[-1]
        if sample_rate is None or sample_rate <= 0:
            raise ConfigurationError(
                "packed decisions need the sample_rate the batch "
                f"carries, got {sample_rate!r}"
            )
        words = np.empty(
            (sig.shape[0], packed_words_required(n)), dtype=np.uint8
        )
        scratch = default_pool.take("comparator.diff", COMPARE_BLOCK)
        for i, rng in enumerate(rngs):
            row_ref = ref if ref.ndim == 1 else ref[i]
            gen = make_rng(rng) if self.input_noise_rms > 0 else None
            for start in range(0, n, COMPARE_BLOCK):
                stop = min(start + COMPARE_BLOCK, n)
                diff = scratch[: stop - start]
                np.subtract(sig[i, start:stop], row_ref[start:stop], out=diff)
                if self.offset_v != 0.0:
                    diff += self.offset_v
                if gen is not None:
                    diff += gen.normal(0.0, self.input_noise_rms, size=diff.size)
                if self.hysteresis_v == 0.0:
                    decided = diff >= 0.0
                else:
                    if start == 0:
                        state = 1.0 if diff[0] >= 0.0 else -1.0
                    bits, state = self._schmitt(diff, state)
                    decided = bits > 0
                words[i, start // 8 : (stop + 7) // 8] = np.packbits(decided)
        return PackedRecordBatch(
            words, n, sample_rate, validate=False, copy=False
        )

    def _schmitt(self, diff: np.ndarray, state: float):
        """Sequential Schmitt-trigger evaluation from ``state``.

        Returns the ``+/-1`` decisions and the state after the last
        sample, so a record can be evaluated block by block.
        """
        half = self.hysteresis_v / 2.0
        bits = np.empty(diff.size)
        for i, value in enumerate(diff):
            if state > 0:
                if value < -half:
                    state = -1.0
            else:
                if value > half:
                    state = 1.0
            bits[i] = state
        return bits, state
