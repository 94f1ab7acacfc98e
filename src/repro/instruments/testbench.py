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

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.noise_analysis import expected_noise_figure_db, noise_budget
from repro.analog.noise_source import CalibratedNoiseSource
from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.bitstream import PackedRecordBatch
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

    def acquire_bitstream(
        self, state: str, rng: GeneratorLike = None
    ) -> Waveform:
        """Capture one state's bitstream (analog chain + digitizer)."""
        gen = make_rng(rng)
        analog_rng, dig_rng = spawn_rngs(gen, 2)
        analog = self.analog_output(state, analog_rng)
        return self.digitizer.digitize(
            analog, self.reference_waveform(), dig_rng
        )

    def acquire_analog_batch(self, states, rngs, rng_mode: str = "compat"):
        """Run the analog front-end for a batch of records.

        Returns ``(analog, reference, dig_rngs, sample_rate,
        digitizer)``.  Each record's generator is split into an analog
        and a digitizer generator exactly as in
        :meth:`acquire_bitstream`, and the digitizer generators are
        handed back un-consumed, so a later ``digitize_batch`` is
        bit-exact vs the scalar path.

        ``rng_mode="compat"`` renders the chain stage by stage (source,
        DUT noise and pole, post-amplifier noise and pole), row ``i``
        bit-exact equal to :meth:`analog_output`.  ``rng_mode="philox"``
        draws each record in one step from a counter stream keyed by
        its analog generator: a complex Gaussian half-spectrum scaled
        by the square root of :meth:`analog_psd`, then one ``irfft``
        (:meth:`~repro.signals.batch_rng.BatchNoiseGenerator.
        spectral_matrix`).  Every stage is linear and Gaussian, so the
        record is the same stochastic process — deterministic per seed,
        not bit-identical to compat.  The compat filters start from
        zero state while the spectral records are stationary; at the
        benches' poles that start-up transient decays below ``1e-16``
        within a few dozen samples, so no warm-up is discarded.
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
            analog = BatchNoiseGenerator(analog_rngs).spectral_matrix(
                self.analog_psd(states), self.n_samples, self.sample_rate_hz
            )
        else:
            # (source, DUT, post-amplifier) generators per record.
            stage_rngs = [spawn_rngs(analog_rng, 3) for analog_rng in analog_rngs]
            source = self.noise_source.render_batch(
                states,
                self.n_samples,
                self.sample_rate_hz,
                [r[0] for r in stage_rngs],
            )
            dut_out = self.dut.process_batch(
                source, self.sample_rate_hz, [r[1] for r in stage_rngs]
            )
            analog = self.post_amplifier.process_batch(
                dut_out, self.sample_rate_hz, [r[2] for r in stage_rngs]
            )
        return (
            analog,
            self.reference_waveform().samples,
            dig_rngs,
            self.sample_rate_hz,
            self.digitizer,
        )

    def acquire_bitstreams(
        self, states, rngs, rng_mode: str = "compat"
    ) -> Tuple[PackedRecordBatch, float]:
        """Capture a batch of bitstreams as one packed record batch.

        ``states`` and ``rngs`` are equal-length sequences; unpacked
        row ``i`` is bit-exact equal to ``acquire_bitstream(states[i],
        rngs[i]).samples``.  The whole analog chain — source rendering,
        both amplifiers, the digitizer — runs on stacked arrays with
        per-record child generators spawned exactly as in the scalar
        path.  Returns ``(records, output_sample_rate)`` with the
        records a :class:`~repro.bitstream.PackedRecordBatch` (1
        bit/sample).  ``rng_mode="philox"`` draws the analog records by
        spectral synthesis (see :meth:`acquire_analog_batch`); the
        digitizer is the same in both modes.
        """
        analog, reference, dig_rngs, rate, digitizer = (
            self.acquire_analog_batch(states, rngs, rng_mode=rng_mode)
        )
        bits = digitizer.digitize_batch(
            analog, reference, rate, dig_rngs, rng_mode=rng_mode
        )
        return bits, rate / digitizer.sampler.divider

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
        above Nyquist):
        ``g_post*P_post*(g_dut*P_dut*(S_src + S_dut(f)) + S_post(f))``.
        The DC bin gets only the white terms — the source and each
        amplifier's ``4kT*Rp`` — because the time path's shaped (1/f)
        contributors carry no DC.  Every other bin of a record shorter
        than ``100 * sample_rate`` samples equals what the time path
        shapes.  Raises :class:`~repro.errors.ConfigurationError` for
        an unknown state.
        """
        source = np.array([self.noise_source.density(s) for s in states])
        freqs = np.fft.rfftfreq(self.n_samples, d=1.0 / self.sample_rate_hz)
        dut, post = self.dut, self.post_amplifier
        dut_noise = dut.amplifier_noise_density(freqs)
        post_noise = post.amplifier_noise_density(freqs)
        dut_noise[0] = dut.feedback_johnson_density
        post_noise[0] = post.feedback_johnson_density
        dut_power = dut.actual_gain**2 * self._chain_power(dut, freqs)
        post_power = post.actual_gain**2 * self._chain_power(post, freqs)
        source_gain = post_power * dut_power
        floor = post_power * (dut_power * dut_noise + post_noise)
        return source[:, np.newaxis] * source_gain + floor

    def _chain_power(
        self, amplifier: NonInvertingAmplifier, freqs: np.ndarray
    ) -> Union[float, np.ndarray]:
        """|H|^2 of the digital pole process_batch() applies (1 when
        the pole is at or above Nyquist, which it skips)."""
        if amplifier.bandwidth_hz < self.sample_rate_hz / 2.0:
            return single_pole_lowpass_power(
                freqs, self.sample_rate_hz, amplifier.bandwidth_hz
            )
        return 1.0

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
