"""The Figure-11 prototype testbench, rebuilt in simulation.

Chain: calibrated noise source (hot/cold) -> non-inverting DUT (Av=101)
-> post-amplifier (Av=1156) -> voltage comparator against a 3 kHz sine
reference -> sampled bitstream.

The testbench owns analytical helpers (predicted output RMS, expected NF)
so experiments can pick a reference amplitude inside the 10-40 % window of
figure 10 and compare BIST-measured against analytically-expected noise
figures, exactly like the paper's Table 3.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple, Union

import numpy as np

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.noise_analysis import expected_noise_figure_db
from repro.analog.noise_source import CalibratedNoiseSource
from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.bitstream import PackedRecordBatch
from repro.buffers import default_pool
from repro.constants import T0_KELVIN
from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.signals.batch_rng import BatchNoiseGenerator, validate_rng_mode
from repro.signals.filters import single_pole_lowpass_power, single_pole_magnitude
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.signals.sources import SineSource
from repro.signals.waveform import Waveform

#: Default post-amplifier opamp: a quiet device whose noise, referred
#: through the DUT's gain of 101, is negligible (Friis, paper section 6).
POST_AMP_OPAMP = OpAmpNoiseModel(
    name="POSTAMP",
    en_v_per_rthz=3.0e-9,
    in_a_per_rthz=0.4e-12,
    en_corner_hz=2.7,
    in_corner_hz=140.0,
    gbw_hz=4e6,
)


def _pole_power(
    freqs: np.ndarray, sample_rate: float, pole_hz: float
) -> Union[float, np.ndarray]:
    """|H|^2 of the digital pole an amplifier's process_batch() applies
    (1 when the pole is at or above Nyquist, which it skips)."""
    if pole_hz < sample_rate / 2.0:
        return single_pole_lowpass_power(freqs, sample_rate, pole_hz)
    return 1.0


@functools.lru_cache(maxsize=4)
def _chain_terms(
    n_samples: int,
    sample_rate: float,
    dut_gain: float,
    dut_pole_hz: float,
    post_args: tuple,
) -> Tuple[np.ndarray, np.ndarray]:
    """The terms ``(C, F)`` of :meth:`PrototypeTestbench.analog_psd`
    that do not depend on the DUT's noise, cached read-only.

    ``C = g_post*P_post*g_dut*P_dut`` and ``F = g_post*P_post*S_post``
    on the record's ``rfftfreq`` grid, ``S_post``'s DC bin being its
    white ``4kT*Rp``.  The key is the values they depend on: the
    record length and rate, the DUT's actual gain and pole, and the
    post-amplifier's constructor arguments (``post_args``).  Not object
    identity: every lot device builds its own bench and amplifiers.
    The grid itself is not kept.
    """
    post = NonInvertingAmplifier(*post_args)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
    post_power = post.actual_gain**2 * _pole_power(
        freqs, sample_rate, post.bandwidth_hz
    )
    dut_power = dut_gain**2 * _pole_power(freqs, sample_rate, dut_pole_hz)
    gain = np.multiply(post_power, dut_power, out=np.empty(freqs.size))
    floor = post.amplifier_noise_density(freqs)
    floor[0] = post.feedback_johnson_density
    floor *= post_power
    gain.setflags(write=False)
    floor.setflags(write=False)
    return gain, floor


class PrototypeTestbench:
    """Simulation of the paper's experimental setup (figure 11).

    Parameters
    ----------
    noise_source:
        Calibrated hot/cold source (Th=2900 K, Tc=290 K in the paper).
    dut:
        The amplifier under test (Av=101 in the paper).
    post_amplifier:
        Conditioning gain stage (Av=1156 in the paper).
    reference:
        The comparator reference source (3 kHz sine in the paper).
    digitizer:
        The 1-bit digitizer.
    sample_rate_hz / n_samples:
        Acquisition parameters (1e6 samples in the paper).
    """

    def __init__(
        self,
        noise_source: CalibratedNoiseSource,
        dut: NonInvertingAmplifier,
        post_amplifier: NonInvertingAmplifier,
        reference: SineSource,
        digitizer: OneBitDigitizer,
        sample_rate_hz: float,
        n_samples: int,
    ):
        if noise_source.source_resistance_ohm != dut.source_resistance_ohm:
            raise ConfigurationError(
                "noise-source resistance "
                f"({noise_source.source_resistance_ohm} ohm) must equal the "
                f"DUT's source resistance ({dut.source_resistance_ohm} ohm)"
            )
        if sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {sample_rate_hz}"
            )
        if n_samples < 2:
            raise ConfigurationError(f"n_samples must be >= 2, got {n_samples}")
        self.noise_source = noise_source
        self.dut = dut
        self.post_amplifier = post_amplifier
        self.reference = reference
        self.digitizer = digitizer
        self.sample_rate_hz = float(sample_rate_hz)
        self.n_samples = int(n_samples)
        self._reference_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Analog simulation
    # ------------------------------------------------------------------
    def analog_output(self, state: str, rng: GeneratorLike = None) -> Waveform:
        """The analog waveform at the post-amplifier output for a state."""
        gen = make_rng(rng)
        src_rng, dut_rng, post_rng = spawn_rngs(gen, 3)
        source = self.noise_source.render(
            state, self.n_samples, self.sample_rate_hz, src_rng
        )
        dut_out = self.dut.process(source, dut_rng)
        return self.post_amplifier.process(dut_out, post_rng)

    def reference_waveform(self) -> Waveform:
        """The comparator reference over the acquisition window.

        The reference is deterministic, so re-rendering it on every
        acquisition only burns time (a 1e6-sample sine is tens of
        milliseconds); the rendered waveform is cached per source
        object and ``(n_samples, sample_rate)``, and re-rendered when
        either changes (``build_prototype_testbench`` reassigns
        ``reference`` once after sizing the amplitude).
        """
        cache = self._reference_cache
        if (
            cache is None
            or cache[0] is not self.reference
            or cache[1] != self.n_samples
            or cache[2] != self.sample_rate_hz
        ):
            wave = self.reference.render(self.n_samples, self.sample_rate_hz)
            cache = (self.reference, self.n_samples, self.sample_rate_hz, wave)
            self._reference_cache = cache
        return cache[3]

    def acquire_analog_batch(self, states, rngs, rng_mode: str = "compat"):
        """Run the analog front-end for a batch of records.

        Returns ``(analog, reference, dig_rngs, sample_rate,
        digitizer)``.  Each record's generator ``r`` is split into an
        analog and a digitizer generator, ``(a, d) = spawn_rngs(r, 2)``,
        exactly as in :meth:`acquire_bitstreams`, and the ``d`` are
        handed back un-consumed, so a later ``digitize_batch`` is
        bit-exact vs :meth:`acquire_bitstreams`.

        ``rng_mode="compat"`` renders the chain stage by stage (source,
        DUT noise and pole, post-amplifier noise and pole) in float64,
        row ``i`` bit-exact equal to ``analog_output(states[i], a)``,
        not ``analog_output(states[i], r)``.  ``rng_mode="philox"``
        draws each record in one step from a counter stream keyed by
        its analog generator: a complex Gaussian half-spectrum scaled
        by the square root of :meth:`analog_psd`, then one ``irfft``
        (:meth:`~repro.signals.batch_rng.BatchNoiseGenerator.
        spectral_matrix`), all in float32, so philox records are
        float32.  Every stage is linear and Gaussian, so the record is
        the same stochastic process — deterministic per seed, not
        bit-identical to compat.  The compat filters start from
        zero state while the spectral records are stationary; at the
        benches' poles that start-up transient decays below ``1e-16``
        within a few dozen samples, so no warm-up is discarded.
        """
        analog, dig_rngs = self._render_analog(states, rngs, rng_mode)
        return (
            analog,
            self.reference_waveform().samples,
            dig_rngs,
            self.sample_rate_hz,
            self.digitizer,
        )

    def _render_analog(self, states, rngs, rng_mode, scratch=False):
        """The analog records and digitizer generators of
        :meth:`acquire_analog_batch`.

        With ``scratch=True`` philox records are synthesized into this
        thread's pooled scratch, valid until the next such call on the
        thread, so only a caller that is done with them before it
        returns may ask for it.  Compat records are fresh either way.
        """
        validate_rng_mode(rng_mode)
        states = list(states)
        rngs = list(rngs)
        if len(states) != len(rngs):
            raise ConfigurationError(
                f"got {len(states)} states but {len(rngs)} generators"
            )
        analog_rngs = []
        dig_rngs = []
        for rng in rngs:
            analog_rng, dig_rng = spawn_rngs(make_rng(rng), 2)
            analog_rngs.append(analog_rng)
            dig_rngs.append(dig_rng)
        if rng_mode == "philox":
            psds = self.analog_psd(states)
            out = None
            if scratch:
                out = default_pool.take(
                    "testbench.analog",
                    (len(states), self.n_samples),
                    np.float32,
                )
            analog = BatchNoiseGenerator(analog_rngs).spectral_matrix(
                psds, self.n_samples, self.sample_rate_hz, out=out
            )
        else:
            # (source, DUT, post-amplifier) generators per record.
            stage_rngs = [spawn_rngs(analog_rng, 3) for analog_rng in analog_rngs]
            # The amplifiers return fresh records, so the source stack
            # can be scratch in both calls.
            source = self.noise_source.render_batch(
                states,
                self.n_samples,
                self.sample_rate_hz,
                [r[0] for r in stage_rngs],
                out=default_pool.take(
                    "testbench.source", (len(states), self.n_samples)
                ),
            )
            dut_out = self.dut.process_batch(
                source, self.sample_rate_hz, [r[1] for r in stage_rngs]
            )
            analog = self.post_amplifier.process_batch(
                dut_out, self.sample_rate_hz, [r[2] for r in stage_rngs]
            )
        return analog, dig_rngs

    def acquire_bitstreams(
        self, states, rngs, rng_mode: str = "compat"
    ) -> Tuple[PackedRecordBatch, float]:
        """Capture a batch of bitstreams as one packed record batch.

        ``states`` and ``rngs`` are equal-length sequences; in compat
        mode unpacked row ``i`` is bit-exact equal to the scalar stage
        chain: :meth:`analog_output` with the analog generator, then
        ``digitizer.digitize`` with the digitizer one.  The whole analog
        chain — source rendering, both amplifiers, the digitizer — runs
        on stacked arrays with those per-record child generators.
        Returns ``(records, output_sample_rate)`` with the
        records a :class:`~repro.bitstream.PackedRecordBatch` (1
        bit/sample).  ``rng_mode="philox"`` draws the analog records by
        spectral synthesis (see :meth:`acquire_analog_batch`) into
        pooled scratch, which is digitized before this returns; the
        digitizer is the same in both modes.
        """
        analog, dig_rngs = self._render_analog(
            states, rngs, rng_mode, scratch=True
        )
        rate = self.sample_rate_hz
        bits = self.digitizer.digitize_batch(
            analog, self.reference_waveform().samples, rate, dig_rngs
        )
        return bits, rate / self.digitizer.sampler.divider

    # ------------------------------------------------------------------
    # Analytical helpers
    # ------------------------------------------------------------------
    def predicted_output_rms(self, state: str, n_points: int = 4001) -> float:
        """Analytically predicted post-amplifier output noise RMS.

        Integrates the calibrated source density plus both amplifiers'
        noise through the full chain response up to Nyquist.
        """
        freqs = np.linspace(1.0, self.sample_rate_hz / 2.0, n_points)
        t_state = self.noise_source.calibrated_temperature(state)
        src = self.dut.source_noise_density(t_state)
        dut_noise = self.dut.amplifier_noise_density(freqs)
        h_dut = self._chain_magnitude(self.dut, freqs)
        at_post_input = (src + dut_noise) * h_dut**2 * self.dut.gain**2
        post_noise = self.post_amplifier.amplifier_noise_density(freqs)
        h_post = self._chain_magnitude(self.post_amplifier, freqs)
        at_output = (
            (at_post_input + post_noise) * h_post**2 * self.post_amplifier.gain**2
        )
        return float(np.sqrt(np.trapezoid(at_output, freqs)))

    def _chain_magnitude(
        self, amplifier: NonInvertingAmplifier, freqs: np.ndarray
    ) -> np.ndarray:
        """|H| the amplifier's process() actually applies (pole only when
        it falls below Nyquist, matching the time-domain path)."""
        if amplifier.bandwidth_hz < self.sample_rate_hz / 2.0:
            return single_pole_magnitude(freqs, amplifier.bandwidth_hz)
        return np.ones_like(freqs)

    def analog_psd(self, states) -> np.ndarray:
        """One-sided PSDs (V^2/Hz) of the post-amplifier output, one row
        per state.

        On the ``rfftfreq(n_samples, 1/sample_rate)`` grid of one
        record, with ``g = actual_gain**2`` (gain drift and the hot
        level error carry through) and ``P`` the power response of the
        digital pole the time path applies (1 when the pole is at or
        above Nyquist): ``C(f)*(S_src + S_dut(f)) + F(f)``, where
        ``C = g_post*P_post*g_dut*P_dut`` and
        ``F = g_post*P_post*S_post(f)``.  The DC bin gets only the
        white terms — the source and each amplifier's ``4kT*Rp`` —
        because the time path's shaped (1/f) contributors carry no DC.
        Every other bin of a record shorter than ``100 * sample_rate``
        samples equals what the time path shapes.  Raises
        :class:`~repro.errors.ConfigurationError` for an unknown state.

        ``C`` and ``F`` do not depend on the DUT's noise, so every
        device of a lot shares them (:func:`_chain_terms`); a call
        evaluates only ``S_dut``, which for a white DUT opamp (both
        corners 0) is one value for every bin but DC.
        """
        source = np.array([self.noise_source.density(s) for s in states])
        dut, post = self.dut, self.post_amplifier
        gain, floor = _chain_terms(
            self.n_samples,
            self.sample_rate_hz,
            dut.actual_gain,
            dut.bandwidth_hz,
            (
                post.opamp,
                post.r_feedback_ohm,
                post.r_ground_ohm,
                post.source_resistance_ohm,
                post.temperature_k,
                post.gain_drift,
            ),
        )
        if dut.opamp.en_corner_hz or dut.opamp.in_corner_hz:
            dut_noise = dut.amplifier_noise_density(
                np.fft.rfftfreq(self.n_samples, d=1.0 / self.sample_rate_hz)
            )
        else:  # white: one density at every frequency
            dut_noise = dut.amplifier_noise_density(1.0)
        psd = np.empty((len(source), gain.size))
        for row, density in zip(psd, source):
            np.multiply(gain, density + dut_noise, out=row)
            row += floor
        white = source + dut.feedback_johnson_density
        psd[:, 0] = white * gain[0] + floor[0]
        return psd

    def expected_nf_db(self, f_low_hz: float, f_high_hz: float) -> float:
        """Analytical expected NF of the DUT over the measurement band."""
        return expected_noise_figure_db(self.dut, f_low_hz, f_high_hz)

    def reference_level_ratio(self, state: str) -> float:
        """Reference peak over predicted noise RMS (figure 10 guideline)."""
        rms = self.predicted_output_rms(state)
        if rms <= 0:
            raise ConfigurationError("predicted output RMS is zero")
        return self.reference.amplitude / rms

    # ------------------------------------------------------------------
    def make_config(
        self,
        nperseg: int = 8192,
        noise_band_hz: Tuple[float, float] = (500.0, 1500.0),
        harmonic_kind: str = "all",
    ) -> BISTMeasurementConfig:
        """Build the analysis configuration matching this bench."""
        return BISTMeasurementConfig(
            sample_rate_hz=self.sample_rate_hz,
            n_samples=self.n_samples,
            nperseg=nperseg,
            reference_frequency_hz=self.reference.frequency_hz,
            noise_band_hz=noise_band_hz,
            harmonic_kind=harmonic_kind,
        )

    def make_estimator(
        self,
        nperseg: int = 8192,
        noise_band_hz: Tuple[float, float] = (500.0, 1500.0),
        harmonic_kind: str = "all",
    ) -> OneBitNoiseFigureBIST:
        """Build the 1-bit estimator calibrated to this bench's source."""
        return OneBitNoiseFigureBIST(
            self.make_config(nperseg, noise_band_hz, harmonic_kind),
            t_hot_k=self.noise_source.t_hot_k,
            t_cold_k=self.noise_source.t_cold_k,
        )


def build_prototype_testbench(
    opamp: Union[str, OpAmpNoiseModel] = "OP27",
    source_resistance_ohm: float = 600.0,
    t_hot_k: float = 2900.0,
    t_cold_k: float = T0_KELVIN,
    sample_rate_hz: float = 32768.0,
    n_samples: int = 2**19,
    reference_frequency_hz: float = 3000.0,
    reference_ratio: float = 0.25,
    dut_r_feedback_ohm: float = 10_000.0,
    dut_r_ground_ohm: float = 100.0,
    post_r_feedback_ohm: float = 115_500.0,
    post_r_ground_ohm: float = 100.0,
    hot_level_error: float = 0.0,
    digitizer: Optional[OneBitDigitizer] = None,
) -> PrototypeTestbench:
    """Assemble the paper's figure-11 setup with sensible defaults.

    ``opamp`` may be a library name (``"OP27"``, ``"OP07"``, ``"TL081"``,
    ``"CA3140"``) or a custom :class:`OpAmpNoiseModel`.  The reference
    amplitude is placed at ``reference_ratio`` times the predicted *cold*
    output noise RMS, inside the 10-40 % window figure 10 recommends
    (the paper's absolute 300 mVpp depends on unpublished attenuator
    settings; see DESIGN.md section 6).
    """
    if isinstance(opamp, str):
        try:
            opamp_model = OPAMP_LIBRARY[opamp]
        except KeyError:
            raise ConfigurationError(
                f"unknown opamp {opamp!r}; library has "
                f"{sorted(OPAMP_LIBRARY)}"
            ) from None
    else:
        opamp_model = opamp
    if not 0.0 < reference_ratio < 1.0:
        raise ConfigurationError(
            f"reference ratio must be in (0, 1), got {reference_ratio}"
        )

    noise_source = CalibratedNoiseSource(
        source_resistance_ohm,
        t_hot_k=t_hot_k,
        t_cold_k=t_cold_k,
        hot_level_error=hot_level_error,
    )
    dut = NonInvertingAmplifier(
        opamp_model,
        r_feedback_ohm=dut_r_feedback_ohm,
        r_ground_ohm=dut_r_ground_ohm,
        source_resistance_ohm=source_resistance_ohm,
        name=f"DUT[{opamp_model.name}]",
    )
    post = NonInvertingAmplifier(
        POST_AMP_OPAMP,
        r_feedback_ohm=post_r_feedback_ohm,
        r_ground_ohm=post_r_ground_ohm,
        source_resistance_ohm=100.0,
        name="post-amplifier",
    )
    # Placeholder reference; amplitude is fixed below from the predicted
    # cold output RMS.
    bench = PrototypeTestbench(
        noise_source=noise_source,
        dut=dut,
        post_amplifier=post,
        reference=SineSource(reference_frequency_hz, 1.0),
        digitizer=digitizer if digitizer is not None else OneBitDigitizer(),
        sample_rate_hz=sample_rate_hz,
        n_samples=n_samples,
    )
    cold_rms = bench.predicted_output_rms("cold")
    bench.reference = SineSource(reference_frequency_hz, reference_ratio * cold_rms)
    return bench
