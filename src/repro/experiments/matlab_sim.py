"""The section-5.2 Matlab simulation environment, shared by Table 2 and
figures 7-10.

The paper's simulation applies two Gaussian noise levels (hot/cold source
temperatures seen through a DUT of known noise factor) plus a constant
square-wave reference to the 1-bit digitizer.  The implied DUT has
NF = 10 dB: the reported true power ratio 3.4866 matches
``(Th + Te)/(Tc + Te)`` with ``Te = (F-1)*290 K = 2610 K`` for
Th = 10000 K, Tc = 1000 K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.bitstream import PackedRecordBatch
from repro.constants import T0_KELVIN
from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
from repro.core.definitions import nf_to_f, noise_temperature_from_factor
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.signals.batch_rng import (
    BatchNoiseGenerator,
    bernoulli_thresholds_u32,
    gaussian_exceed_probability,
    validate_rng_mode,
    white_noise_matrix,
)
from repro.signals.random import GeneratorLike, make_rng
from repro.signals.sources import GaussianNoiseSource, SquareSource
from repro.signals.waveform import Waveform


@dataclass(frozen=True)
class MatlabSimConfig:
    """Parameters of the section-5.2 simulation.

    Defaults reproduce the paper: Th=10000 K, Tc=1000 K, an implied 10 dB
    DUT, 1e6 samples with FFT size 1e4, and a square reference whose
    amplitude is 20 % of the cold noise RMS (inside figure 10's 10-40 %
    window).  The 60 Hz reference frequency comes from figure 9's zoom.
    """

    t_hot_k: float = 10000.0
    t_cold_k: float = 1000.0
    dut_nf_db: float = 10.0
    t0_k: float = T0_KELVIN
    sample_rate_hz: float = 10000.0
    n_samples: int = 1_000_000
    nperseg: int = 10000
    reference_frequency_hz: float = 60.0
    reference_ratio: float = 0.20
    cold_rms_v: float = 0.30
    noise_band_hz: Tuple[float, float] = (100.0, 4500.0)

    def __post_init__(self):
        if self.t_hot_k <= self.t_cold_k:
            raise ConfigurationError(
                f"Th ({self.t_hot_k} K) must exceed Tc ({self.t_cold_k} K)"
            )
        if not 0 < self.reference_ratio < 1:
            raise ConfigurationError(
                f"reference ratio must be in (0, 1), got {self.reference_ratio}"
            )
        if self.cold_rms_v <= 0:
            raise ConfigurationError(
                f"cold RMS must be > 0, got {self.cold_rms_v}"
            )


class MatlabSimulation:
    """Reproduction of the paper's Matlab noise-ratio simulation."""

    def __init__(self, config: Optional[MatlabSimConfig] = None):
        self.config = config if config is not None else MatlabSimConfig()
        factor = nf_to_f(self.config.dut_nf_db)
        self.te_k = noise_temperature_from_factor(factor, self.config.t0_k)
        self._reference: Optional[Waveform] = None
        # Per-(state, digitizer-config) u32 Bernoulli thresholds for the
        # philox direct-synthesis path; one ndtr pass each, then reused
        # across every record and repeat.
        self._bernoulli_cache: dict = {}

    # ------------------------------------------------------------------
    @property
    def true_power_ratio(self) -> float:
        """The exact noise power ratio ``(Th+Te)/(Tc+Te)``.

        3.4931 for the paper's defaults (their simulation measured
        3.4866 on one realization).
        """
        c = self.config
        return (c.t_hot_k + self.te_k) / (c.t_cold_k + self.te_k)

    def noise_rms(self, state: str) -> float:
        """DUT-output noise RMS for a state (cold anchored at cold_rms_v)."""
        c = self.config
        if state == "cold":
            return c.cold_rms_v
        if state == "hot":
            return c.cold_rms_v * float(np.sqrt(self.true_power_ratio))
        raise ConfigurationError(f"state must be 'hot' or 'cold', got {state!r}")

    @property
    def reference_amplitude_v(self) -> float:
        """Square-wave reference amplitude (ratio x cold RMS)."""
        return self.config.reference_ratio * self.config.cold_rms_v

    # ------------------------------------------------------------------
    def render_noise(self, state: str, rng: GeneratorLike = None) -> Waveform:
        """The analog noise record for one state (no reference)."""
        c = self.config
        source = GaussianNoiseSource(self.noise_rms(state))
        return source.render(c.n_samples, c.sample_rate_hz, rng)

    def reference_waveform(self) -> Waveform:
        """The constant-amplitude square reference.

        Deterministic, so it is rendered once and cached (the simulation
        parameters are frozen; re-rendering a 1e6-sample square wave per
        acquisition dominated the seed's serial hot path).
        """
        if self._reference is None:
            c = self.config
            source = SquareSource(
                c.reference_frequency_hz, self.reference_amplitude_v
            )
            self._reference = source.render(c.n_samples, c.sample_rate_hz)
        return self._reference

    def bitstream(
        self,
        state: str,
        rng: GeneratorLike = None,
        digitizer: Optional[OneBitDigitizer] = None,
    ) -> Waveform:
        """Digitize one state's noise against the shared reference."""
        dig = digitizer if digitizer is not None else OneBitDigitizer()
        gen = make_rng(rng)
        noise = self.render_noise(state, gen)
        return dig.digitize(noise, self.reference_waveform(), gen)

    def _bernoulli_thresholds(self, state: str, dig: OneBitDigitizer):
        """u32 compare thresholds for direct packed-record synthesis.

        The 1-bit decision for white Gaussian noise against the
        deterministic reference is a Bernoulli draw per latched sample
        with ``P(bit=1) = P(Z >= (ref_t - offset) / sigma)``, where
        ``sigma`` folds the comparator's own input noise in
        (independent Gaussians add in quadrature) and a jitter-free
        clock divider simply decimates the reference.  Returns ``None``
        when the digitizer leaves the Bernoulli model (hysteresis makes
        decisions state-dependent, jitter randomizes the sampling
        instants).  Thresholds are cached per (state, digitizer
        configuration) — one CDF pass serves every record and repeat.
        """
        comp, latch = dig.comparator, dig.sampler
        if comp.hysteresis_v != 0.0 or latch.jitter_rms_samples > 0.0:
            return None
        key = (state, comp.offset_v, comp.input_noise_rms, latch.divider)
        cached = self._bernoulli_cache.get(key)
        if cached is None:
            sigma = float(
                np.hypot(self.noise_rms(state), comp.input_noise_rms)
            )
            reference = self.reference_waveform().samples[:: latch.divider]
            p = gaussian_exceed_probability(
                (reference - comp.offset_v) / sigma
            )
            cached = bernoulli_thresholds_u32(p)
            self._bernoulli_cache[key] = cached
        return cached

    def acquire_bitstreams(
        self,
        states,
        rngs,
        digitizer: Optional[OneBitDigitizer] = None,
        rng_mode: str = "compat",
    ) -> Tuple[PackedRecordBatch, float]:
        """Digitize a batch of states as one packed record batch.

        Returns ``(records, sample_rate)`` — the batch-acquisition
        protocol shared with :class:`~repro.instruments.testbench.
        PrototypeTestbench` — with the records a
        :class:`~repro.bitstream.PackedRecordBatch` (1 bit/sample).  In
        compat mode unpacked row ``i`` is bit-exact equal to
        ``bitstream(states[i], rngs[i]).samples``.  The acquisition
        streams record by record: each record's analog noise is drawn
        at its own state's density, digitized to packed words and
        discarded before the next one, so peak float memory is one
        record — not the batch — no matter how many records are
        stacked.

        ``rng_mode="philox"`` is the fast synthesis mode.  Through a
        digitizer the Bernoulli model covers (no hysteresis, no latch
        jitter — offset, comparator input noise and clock division all
        fold in analytically), the records are synthesized *directly*
        as packed bits: each bit is an iid Bernoulli draw with
        probability ``P(noise >= ref_t)``, pulled from one per-record
        Philox counter stream as a 32-bit uniform compare — no Gaussian
        float is ever materialized, which is where the >= 3x
        record-synthesis speedup of the noise layer comes from.  The
        synthesized records follow exactly the same stochastic process
        as the compat records (white noise against a deterministic
        reference makes the decisions independent across samples), up
        to a ``2**-32`` probability quantization per sample; they are
        deterministic per seed but a different realization than compat.
        Configurations outside the Bernoulli model fall back to
        counter-based noise fills plus the regular digitize path.
        """
        validate_rng_mode(rng_mode)
        c = self.config
        dig = digitizer if digitizer is not None else OneBitDigitizer()
        states = list(states)
        gens = [make_rng(rng) for rng in rngs]
        if len(states) != len(gens):
            raise ConfigurationError(
                f"got {len(states)} states but {len(gens)} generators"
            )
        out_rate = c.sample_rate_hz / dig.sampler.divider
        if rng_mode == "philox":
            thresholds = {
                state: self._bernoulli_thresholds(state, dig)
                for state in set(states)
            }
            if all(t is not None for t in thresholds.values()):
                batch_gen = BatchNoiseGenerator(gens)
                words = batch_gen.packed_bernoulli_words(
                    [thresholds[state] for state in states]
                )
                batch = PackedRecordBatch(
                    words,
                    thresholds[states[0]].size,
                    out_rate,
                    validate=False,
                    copy=False,
                )
                return batch, out_rate
        reference = self.reference_waveform().samples
        rows = []
        for state, gen in zip(states, gens):
            noise = white_noise_matrix(
                [gen], c.n_samples, scale=self.noise_rms(state),
                rng_mode=rng_mode,
            )
            record = dig.digitize_batch(
                noise, reference, c.sample_rate_hz, [gen]
            )
            rows.append(record[0])
        return PackedRecordBatch.from_records(rows), out_rate

    # ------------------------------------------------------------------
    def make_config(self) -> BISTMeasurementConfig:
        """Analysis configuration matching the simulation parameters."""
        c = self.config
        return BISTMeasurementConfig(
            sample_rate_hz=c.sample_rate_hz,
            n_samples=c.n_samples,
            nperseg=c.nperseg,
            reference_frequency_hz=c.reference_frequency_hz,
            noise_band_hz=c.noise_band_hz,
            harmonic_kind="odd",
        )

    def make_estimator(self) -> OneBitNoiseFigureBIST:
        """1-bit estimator calibrated with the simulation temperatures."""
        c = self.config
        return OneBitNoiseFigureBIST(
            self.make_config(), t_hot_k=c.t_hot_k, t_cold_k=c.t_cold_k, t0_k=c.t0_k
        )
