"""The assembled 1-bit digitizer (comparator + sampling latch, figure 6)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bitstream import PackedRecordBatch
from repro.digitizer.comparator import Comparator
from repro.digitizer.sampler import SampledLatch
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.signals.waveform import Waveform


class OneBitDigitizer:
    """Low-cost 1-bit digitizer: ``bit[n] = sign(signal[n] - reference[n])``.

    Parameters
    ----------
    comparator:
        Comparator model (ideal by default).
    sampler:
        Sampling latch (pass-through by default).

    Notes
    -----
    The paper requires the noise amplitude at the test point to be greater
    than or equal to the reference amplitude and both to share the same DC
    level (section 5.1); :meth:`level_ratio` lets callers check the
    recommended 10-40 % window of figure 10.
    """

    def __init__(
        self,
        comparator: Optional[Comparator] = None,
        sampler: Optional[SampledLatch] = None,
    ):
        self.comparator = comparator if comparator is not None else Comparator()
        self.sampler = sampler if sampler is not None else SampledLatch()
        if not isinstance(self.comparator, Comparator):
            raise ConfigurationError(
                f"comparator must be a Comparator, got "
                f"{type(self.comparator).__name__}"
            )
        if not isinstance(self.sampler, SampledLatch):
            raise ConfigurationError(
                f"sampler must be a SampledLatch, got {type(self.sampler).__name__}"
            )

    def digitize(
        self,
        signal: Waveform,
        reference: Waveform,
        rng: GeneratorLike = None,
    ) -> Waveform:
        """Digitize ``signal`` against ``reference`` into a +/-1 bitstream."""
        gen = make_rng(rng)
        comp_rng, latch_rng = spawn_rngs(gen, 2)
        decisions = self.comparator.compare(signal, reference, comp_rng)
        return self.sampler.sample(decisions, latch_rng)

    def digitize_batch(
        self,
        signals: np.ndarray,
        reference: np.ndarray,
        sample_rate: float,
        rngs=None,
    ) -> PackedRecordBatch:
        """Digitize stacked records into a packed record batch.

        ``signals`` is ``(n_records, n_samples)``; ``reference`` is a
        shared 1-D reference or a ``(n_records, n_samples)`` stack with
        one reference row per record (multi-device batches, where every
        DUT sizes its own reference amplitude).  ``rngs`` supplies one
        generator per record.  The records come back as a
        :class:`~repro.bitstream.PackedRecordBatch` (1 bit/sample) and
        the input is never modified.  Unpacked row ``i`` is bit-exact
        equal to :meth:`digitize` of record ``i`` with ``rngs[i]`` — the
        per-record child generators for comparator noise and latch
        jitter are spawned exactly as in the scalar path.  A float32
        stack reaches the comparator uncopied (see
        :meth:`Comparator.compare_batch`).  The output sample rate is
        ``sample_rate / divider`` (see :attr:`output_sample_rate_factor`).
        """
        sig = np.asarray(signals)
        if sig.ndim != 2:
            raise ConfigurationError(
                f"signals must be a 2-D array, got shape {sig.shape}"
            )
        if sample_rate <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {sample_rate}"
            )
        if rngs is None:
            rngs = [None] * sig.shape[0]
        rngs = list(rngs)
        if len(rngs) != sig.shape[0]:
            raise ConfigurationError(
                f"got {sig.shape[0]} records but {len(rngs)} generators"
            )
        comp_rngs = []
        latch_rngs = []
        for rng in rngs:
            comp_rng, latch_rng = spawn_rngs(make_rng(rng), 2)
            comp_rngs.append(comp_rng)
            latch_rngs.append(latch_rng)
        decisions = self.comparator.compare_batch(
            sig, reference, comp_rngs, sample_rate=float(sample_rate)
        )
        return self.sampler.sample_batch_packed(decisions, latch_rngs)

    @staticmethod
    def level_ratio(signal: Waveform, reference: Waveform) -> float:
        """Reference-to-noise amplitude ratio ``Vref_peak / Vnoise_rms``.

        Figure 10 of the paper recommends keeping this between roughly
        0.1 and 0.4 for accurate power-ratio estimates.
        """
        noise_rms = signal.std()
        if noise_rms == 0:
            raise ConfigurationError("signal has zero AC power")
        return reference.peak() / noise_rms

    @property
    def output_sample_rate_factor(self) -> float:
        """Output rate relative to the simulation rate (1/divider)."""
        return 1.0 / self.sampler.divider
