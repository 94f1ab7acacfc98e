"""Counter-based batched noise synthesis (the ``rng_mode`` fast path).

Profiling after the engine / packed-record / scheduler PRs left one
irreducible per-record cost: Gaussian noise synthesis.  The compat
acquisition path must *replay* each record's own ``default_rng`` stream
(that is the reproducibility contract every equivalence test pins), so
records are drawn one at a time and the ziggurat transform runs at full
per-sample cost for every float that is about to be collapsed to one
bit anyway.

This module is the opt-in alternative.  The acquirers
(:class:`~repro.experiments.matlab_sim.MatlabSimulation`,
:class:`~repro.instruments.testbench.PrototypeTestbench`), the
digitizer's provenance and :func:`white_noise_matrix` take an
``rng_mode`` knob; the per-contributor renderers of the analog chain
are compat-only:

``"compat"`` (default)
    Bit-identical to the historical per-record ``default_rng`` replay.
    :func:`white_noise_matrix` centralizes that loop (one shared helper
    instead of per-source copies) without changing a single bit.

``"philox"``
    The fast mode.  A :class:`BatchNoiseGenerator` derives one
    counter-based ``numpy.random.Philox`` stream per record from the
    *same* spawn-seeded :class:`numpy.random.SeedSequence` identity the
    compat generator carries — records stay independent, deterministic
    and traceable to their seeds — and fills the whole
    ``(n_records, n_samples)`` noise matrix in one 2-D pass
    (``standard_normal(out=row)`` fills plus a single vectorized
    scale/shift, no per-record temporaries or copies).

    A linear Gaussian chain (source, amplifiers, filters) is one
    Gaussian process with one PSD, so its records are drawn in one
    step: a complex Gaussian half-spectrum per record, scaled by the
    square root of the chain's PSD, then one ``irfft``
    (:meth:`BatchNoiseGenerator.spectral_matrix`).

    For records whose floats only ever feed an ideal comparator, the
    generator can go further and synthesize the *packed bits* directly:
    a 1-bit decision against a deterministic reference is a Bernoulli
    draw with probability ``P(noise >= ref_t)``, so one 32-bit counter
    uniform and a compare replace the full Gaussian sample
    (:meth:`BatchNoiseGenerator.packed_bernoulli_words`).  The bits are
    drawn from exactly the same stochastic process as the compat
    records — iid across samples because the noise is white — up to a
    probability quantization of ``2**-32`` per sample.

Philox-mode records are *not* bit-identical to compat records (they are
a different, equally valid realization); they are deterministic per
seed and statistically equivalent.  Everything downstream (Welch,
normalization, Y-factor) is distribution-free over ±1 records, so NF
results agree within ordinary statistical scatter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import bernoulli_pack
from repro.signals.random import GeneratorLike, make_rng

__all__ = [
    "RNG_MODES",
    "validate_rng_mode",
    "BatchNoiseGenerator",
    "white_noise_matrix",
    "bernoulli_thresholds_u32",
    "gaussian_exceed_probability",
]

#: Accepted random-synthesis modes, in documentation order.
RNG_MODES = ("compat", "philox")


def validate_rng_mode(rng_mode: str) -> str:
    """Return ``rng_mode`` if valid, raise otherwise."""
    if rng_mode not in RNG_MODES:
        raise ConfigurationError(
            f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
        )
    return rng_mode


def _seed_sequence_of(seed: GeneratorLike) -> np.random.SeedSequence:
    """A spawn-seeded stream identity for one record's fill.

    The stream is a *spawned child* of the seed's own
    :class:`~numpy.random.SeedSequence`, so it keeps the record's
    spawn-key provenance while remaining independent of every other
    stream derived from the same seed.  Spawning is stateful on
    purpose: successive fills that reuse one generator consume
    successive children and stay mutually independent — the
    counter-based counterpart of compat mode's advancing draw stream.
    """
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq
        if not isinstance(seq, np.random.SeedSequence):  # pragma: no cover
            raise ConfigurationError(
                "generator does not expose a SeedSequence; philox mode "
                "needs seed-sequence provenance"
            )
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return seq.spawn(1)[0]


class BatchNoiseGenerator:
    """Counter-based (Philox) noise synthesis for a batch of records.

    One spawn-seeded Philox stream per record: stream ``i`` is keyed by
    the seed-sequence identity of ``seeds[i]`` (generators contribute
    their own spawned sequence), so rows are independent, deterministic
    and carry the same provenance as the compat generators they stand
    in for.
    """

    def __init__(self, seeds: Sequence[GeneratorLike]):
        self.seed_sequences = [_seed_sequence_of(s) for s in seeds]
        self._gens = [
            np.random.Generator(np.random.Philox(seq))
            for seq in self.seed_sequences
        ]

    @property
    def n_streams(self) -> int:
        """Number of per-record streams (rows of every fill)."""
        return len(self._gens)

    # ------------------------------------------------------------------
    def normal_matrix(
        self,
        n_samples: int,
        mean: float = 0.0,
        scale: Union[float, np.ndarray] = 1.0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fill a ``(n_streams, n_samples)`` Gaussian noise matrix.

        Row ``i`` comes from stream ``i``; ``scale`` may be a scalar or
        one value per row (heterogeneous hot/cold densities).  The fill
        runs as one 2-D pass: each row is written in place by the
        stream's C-level ``standard_normal(out=...)`` (no per-record
        temporaries, copies or Python-level sample loops), then a
        single vectorized multiply/add applies scale and mean to the
        whole matrix.
        """
        n = int(n_samples)
        if n < 0:
            raise ConfigurationError(f"n_samples must be >= 0, got {n_samples}")
        shape = (self.n_streams, n)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ConfigurationError(
                f"out must be float64 of shape {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        if n == 0:
            return out
        for i, gen in enumerate(self._gens):
            gen.standard_normal(n, out=out[i])
        scale_arr = np.asarray(scale, dtype=float)
        if scale_arr.ndim == 0:
            if float(scale_arr) != 1.0:
                out *= float(scale_arr)
        else:
            if scale_arr.shape != (self.n_streams,):
                raise ConfigurationError(
                    f"scale must be scalar or one value per stream "
                    f"({self.n_streams}), got shape {scale_arr.shape}"
                )
            out *= scale_arr[:, np.newaxis]
        if mean != 0.0:
            out += mean
        return out

    def spectral_matrix(
        self,
        psds: Union[np.ndarray, Sequence[np.ndarray]],
        n_samples: int,
        sample_rate: float,
    ) -> np.ndarray:
        """Gaussian records with prescribed one-sided PSDs, one per stream.

        ``psds`` is one PSD (V^2/Hz) on the ``rfftfreq(n_samples,
        1/sample_rate)`` grid shared by every stream, or one such PSD
        per stream.  Row ``i`` is the ``irfft`` of a complex Gaussian
        half-spectrum drawn from stream ``i``: interior bins have real
        and imaginary parts ``N(0, n*fs*S/4)``, the DC bin and (for
        even ``n``) the Nyquist bin are real with variance ``n*fs*S/2``
        — the spectrum ``rfft`` gives white noise of density ``S``, so
        the record is a stationary Gaussian process with PSD ``S``.
        """
        n = int(n_samples)
        if n < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        if sample_rate <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {sample_rate}"
            )
        n_bins = n // 2 + 1
        if isinstance(psds, np.ndarray) and psds.ndim == 1:
            rows = [psds] * self.n_streams
        else:
            rows = list(psds)
            if len(rows) != self.n_streams:
                raise ConfigurationError(
                    f"got {self.n_streams} streams but {len(rows)} PSDs"
                )
        # Real bins carry the whole variance on one part: x sqrt(2).
        real_bins = [0, n_bins - 1] if n % 2 == 0 else [0]
        spectrum = np.empty((self.n_streams, n_bins), dtype=np.complex128)
        for i, gen in enumerate(self._gens):
            psd = np.asarray(rows[i], dtype=float)
            if psd.shape != (n_bins,) or not (
                psd.min() >= 0.0 and np.isfinite(psd.max())
            ):
                raise ConfigurationError(
                    f"each PSD must hold {n_bins} finite non-negative "
                    f"values, got shape {psd.shape}"
                )
            amp = np.sqrt(psd * (n * sample_rate / 4.0))
            amp[real_bins] *= np.sqrt(2.0)
            gen.standard_normal(2 * n_bins, out=spectrum[i].view(np.float64))
            spectrum[i] *= amp
        spectrum[:, real_bins] = spectrum[:, real_bins].real
        return np.fft.irfft(spectrum, n=n, axis=-1)

    # ------------------------------------------------------------------
    def packed_bernoulli_words(
        self,
        thresholds_u32: Union[np.ndarray, Sequence[np.ndarray]],
    ) -> np.ndarray:
        """Synthesize packed Bernoulli bitstreams, one row per stream.

        ``thresholds_u32`` is a 1-D ``uint32`` vector shared by every
        stream, or one vector per stream (rows of a two-state batch
        share the two cached state vectors): bit ``t`` of row ``i`` is
        set iff the stream's ``t``-th 32-bit counter uniform is below
        ``thresholds[i][t]``, i.e. with probability
        ``thresholds[i][t] / 2**32`` (see
        :func:`bernoulli_thresholds_u32`).  Returns
        ``numpy.packbits``-order words of shape
        ``(n_streams, ceil(n_samples / 8))`` — ready for
        :class:`~repro.bitstream.PackedRecordBatch` — without ever
        materializing a float sample: per bit the cost is half a
        ``uint64`` of counter output plus one SIMD compare, which is
        what makes direct record synthesis several times faster than
        drawing the Gaussian floats the comparator would collapse.
        """
        if self.n_streams == 0:
            raise ConfigurationError(
                "cannot synthesize a batch with no streams"
            )
        if isinstance(thresholds_u32, np.ndarray):
            rows = [thresholds_u32] * self.n_streams
        else:
            rows = list(thresholds_u32)
            if len(rows) != self.n_streams:
                raise ConfigurationError(
                    f"got {self.n_streams} streams but {len(rows)} "
                    "threshold vectors"
                )
        for row in rows:
            arr = np.asarray(row)
            if arr.dtype != np.uint32 or arr.ndim != 1:
                raise ConfigurationError(
                    f"thresholds must be 1-D uint32 arrays, got "
                    f"{arr.dtype} with {arr.ndim} dims"
                )
            if arr.size != rows[0].size:
                raise ConfigurationError(
                    "threshold vectors must share one length, got "
                    f"{arr.size} vs {rows[0].size}"
                )
        n = int(rows[0].size)
        n_raw = (n + 1) // 2  # two u32 lanes per raw u64
        words = np.empty((self.n_streams, (n + 7) // 8), dtype=np.uint8)
        for i, gen in enumerate(self._gens):
            raw = gen.bit_generator.random_raw(n_raw)
            bernoulli_pack(raw, rows[i], words[i])
        return words


def white_noise_matrix(
    rngs: Sequence[GeneratorLike],
    n_samples: int,
    mean: float = 0.0,
    scale: Union[float, np.ndarray] = 1.0,
    rng_mode: str = "compat",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked white-Gaussian records, one row per generator.

    The single white-noise kernel behind every source's batch path
    (:class:`~repro.signals.sources.GaussianNoiseSource`,
    :class:`~repro.signals.sources.ThermalNoiseSource`, the shaped-noise
    white stage, :class:`~repro.analog.noise_source.
    CalibratedNoiseSource`).  ``scale`` may be a scalar or one RMS per
    row.

    In ``"compat"`` mode row ``i`` equals
    ``make_rng(rngs[i]).normal(mean, scale_i, n_samples)`` bit for bit
    — the generators are resolved once up front and each row is drawn
    straight into the output matrix, but the draws themselves replay
    the historical per-record streams exactly.  In ``"philox"`` mode
    the rows come from per-record counter streams via
    :meth:`BatchNoiseGenerator.normal_matrix` (deterministic and
    independent per record, not bit-identical to compat).
    """
    validate_rng_mode(rng_mode)
    rngs = list(rngs)
    n = int(n_samples)
    if rng_mode == "philox":
        return BatchNoiseGenerator(rngs).normal_matrix(
            n, mean=mean, scale=scale, out=out
        )
    shape = (len(rngs), n)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ConfigurationError(
            f"out must be float64 of shape {shape}, got {out.dtype} "
            f"{out.shape}"
        )
    scale_arr = np.asarray(scale, dtype=float)
    if scale_arr.ndim == 0:
        scales = np.full(len(rngs), float(scale_arr))
    elif scale_arr.shape == (len(rngs),):
        scales = scale_arr
    else:
        raise ConfigurationError(
            f"scale must be scalar or one value per record "
            f"({len(rngs)}), got shape {scale_arr.shape}"
        )
    gens = [make_rng(rng) for rng in rngs]
    for i, gen in enumerate(gens):
        out[i] = gen.normal(mean, scales[i], size=n)
    return out


# ----------------------------------------------------------------------
# Bernoulli threshold math
# ----------------------------------------------------------------------
def gaussian_exceed_probability(x: np.ndarray) -> np.ndarray:
    """``P(Z >= x)`` for standard normal ``Z`` (the comparator model).

    Uses :func:`scipy.special.ndtr` when scipy is importable and a
    ``math.erfc`` fallback otherwise (the thresholds are computed once
    per state and cached, so the fallback's Python loop is off the hot
    path).
    """
    x = np.asarray(x, dtype=float)
    try:
        from scipy.special import ndtr
    except ImportError:  # pragma: no cover - scipy is a soft dependency
        flat = x.reshape(-1)
        out = np.empty_like(flat)
        for i, v in enumerate(flat):
            out[i] = 0.5 * math.erfc(v / math.sqrt(2.0))
        return out.reshape(x.shape)
    return ndtr(-x)


def bernoulli_thresholds_u32(probabilities: np.ndarray) -> np.ndarray:
    """Quantize per-sample bit probabilities to ``uint32`` thresholds.

    ``uniform_u32 < threshold`` fires with probability
    ``threshold / 2**32``, so the quantization error per sample is below
    ``2**-32`` — about seven orders of magnitude under the statistical
    resolution of a paper-scale (1e6-sample) record.  ``p == 1`` maps to
    the largest representable threshold (probability ``1 - 2**-32``).
    """
    p = np.asarray(probabilities, dtype=float)
    if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ConfigurationError("bit probabilities must be in [0, 1]")
    scaled = np.rint(p * 4294967296.0)  # 2**32
    return np.minimum(scaled, 4294967295.0).astype(np.uint32)
