"""Non-inverting amplifier model (the paper's DUT, figure 11).

The amplifier is characterized by:

* closed-loop voltage gain ``Av = 1 + Rf/Rg`` (101 in the paper's DUT,
  1156 in its post-amplifier);
* a single-pole closed-loop response with pole ``GBW / Av``;
* input-referred noise contributors, all expressed as one-sided densities
  in series with the non-inverting input:

  - opamp voltage noise ``en^2(f)`` (with 1/f corner),
  - opamp current noise into the source impedance ``in^2(f) * Rs^2``,
  - opamp current noise into the feedback network ``in^2(f) * Rp^2``
    (``Rp = Rf || Rg``),
  - Johnson noise of the feedback network ``4kT * Rp``.

The *source* resistor noise ``4kT*Rs`` is deliberately not part of the
amplifier's own noise — it is the denominator of the noise-factor
definition (paper eq 2/4).

Both an analytical path (densities, used by
:mod:`repro.analog.noise_analysis` for the "expected" NF) and a
time-domain path (:meth:`NonInvertingAmplifier.process`, used by the BIST
simulation) are provided; reproducing Table 3 compares the two.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.buffers import default_pool
from repro.constants import BOLTZMANN, T0_KELVIN
from repro.analog.opamp import OpAmpNoiseModel
from repro.errors import ConfigurationError
from repro.signals.filters import (
    single_pole_lowpass,
    single_pole_lowpass_array,
    single_pole_magnitude,
)
from repro.signals.random import GeneratorLike, make_rng
from repro.signals.sources import GaussianNoiseSource, ShapedNoiseSource
from repro.signals.waveform import Waveform


class NonInvertingAmplifier:
    """Non-inverting opamp amplifier with full noise model.

    Parameters
    ----------
    opamp:
        The opamp noise model.
    r_feedback_ohm / r_ground_ohm:
        Feedback network; closed-loop gain is ``1 + Rf/Rg``.
    source_resistance_ohm:
        Source resistance seen by the non-inverting input; sets the
        noise-figure reference.
    temperature_k:
        Physical temperature of the resistors.
    gain_drift:
        Multiplicative deviation of the *actual* gain from the nominal
        design value — models the process variation discussed in the
        paper's section 4.1 (eq 10).  The drift affects simulated
        waveforms but not the nominal :attr:`gain` reported to test code.
    """

    def __init__(
        self,
        opamp: OpAmpNoiseModel,
        r_feedback_ohm: float,
        r_ground_ohm: float,
        source_resistance_ohm: float,
        temperature_k: float = T0_KELVIN,
        gain_drift: float = 1.0,
        name: Optional[str] = None,
    ):
        if not isinstance(opamp, OpAmpNoiseModel):
            raise ConfigurationError(
                f"opamp must be an OpAmpNoiseModel, got {type(opamp).__name__}"
            )
        if r_feedback_ohm < 0 or r_ground_ohm <= 0:
            raise ConfigurationError(
                f"need Rf >= 0 and Rg > 0, got Rf={r_feedback_ohm}, "
                f"Rg={r_ground_ohm}"
            )
        if source_resistance_ohm <= 0:
            raise ConfigurationError(
                f"source resistance must be > 0, got {source_resistance_ohm}"
            )
        if temperature_k < 0:
            raise ConfigurationError(
                f"temperature must be >= 0 K, got {temperature_k}"
            )
        if gain_drift <= 0:
            raise ConfigurationError(f"gain drift must be > 0, got {gain_drift}")
        self.opamp = opamp
        self.r_feedback_ohm = float(r_feedback_ohm)
        self.r_ground_ohm = float(r_ground_ohm)
        self.source_resistance_ohm = float(source_resistance_ohm)
        self.temperature_k = float(temperature_k)
        self.gain_drift = float(gain_drift)
        self.name = name or f"noninv[{opamp.name}]x{self.gain:g}"

    # ------------------------------------------------------------------
    # Topology-derived quantities
    # ------------------------------------------------------------------
    @property
    def gain(self) -> float:
        """Nominal closed-loop voltage gain ``1 + Rf/Rg``."""
        return 1.0 + self.r_feedback_ohm / self.r_ground_ohm

    @property
    def actual_gain(self) -> float:
        """Gain including process drift (used by the waveform path)."""
        return self.gain * self.gain_drift

    @property
    def bandwidth_hz(self) -> float:
        """Closed-loop -3 dB bandwidth ``GBW / Av``."""
        return self.opamp.gbw_hz / self.gain

    @property
    def feedback_parallel_ohm(self) -> float:
        """``Rf || Rg`` seen by the inverting input."""
        if self.r_feedback_ohm == 0.0:
            return 0.0
        return (
            self.r_feedback_ohm
            * self.r_ground_ohm
            / (self.r_feedback_ohm + self.r_ground_ohm)
        )

    def with_gain_drift(self, gain_drift: float) -> "NonInvertingAmplifier":
        """Return a copy with a different process gain drift."""
        return NonInvertingAmplifier(
            self.opamp,
            self.r_feedback_ohm,
            self.r_ground_ohm,
            self.source_resistance_ohm,
            self.temperature_k,
            gain_drift,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Analytical noise densities (input-referred, V^2/Hz)
    # ------------------------------------------------------------------
    def source_noise_density(self, temperature_k: Optional[float] = None) -> float:
        """Johnson noise density of the source resistance, ``4kT*Rs``."""
        temp = self.temperature_k if temperature_k is None else temperature_k
        if temp < 0:
            raise ConfigurationError(f"temperature must be >= 0 K, got {temp}")
        return 4.0 * BOLTZMANN * temp * self.source_resistance_ohm

    def amplifier_noise_density(self, freqs_hz) -> np.ndarray:
        """Input-referred amplifier-only noise density (V^2/Hz)."""
        f = np.asarray(freqs_hz, dtype=float)
        rp = self.feedback_parallel_ohm
        rs = self.source_resistance_ohm
        en2 = self.opamp.en_density(f)
        in2 = self.opamp.in_density(f)
        return en2 + in2 * (rs**2 + rp**2) + self.feedback_johnson_density

    @property
    def feedback_johnson_density(self) -> float:
        """Johnson noise density of the feedback network, ``4kT*Rp`` —
        the white part of :meth:`amplifier_noise_density`."""
        return 4.0 * BOLTZMANN * self.temperature_k * self.feedback_parallel_ohm

    def total_input_noise_density(
        self, freqs_hz, source_temperature_k: Optional[float] = None
    ) -> np.ndarray:
        """Amplifier noise plus source Johnson noise (V^2/Hz)."""
        return self.amplifier_noise_density(freqs_hz) + self.source_noise_density(
            source_temperature_k
        )

    def closed_loop_magnitude(self, freqs_hz) -> np.ndarray:
        """|H(f)| of the normalized closed-loop single-pole response."""
        return single_pole_magnitude(freqs_hz, self.bandwidth_hz)

    def spot_noise_factor(self, freq_hz: float) -> float:
        """Spot noise factor at one frequency (source at T0)."""
        amp = float(self.amplifier_noise_density(freq_hz))
        src = self.source_noise_density(T0_KELVIN)
        return 1.0 + amp / src

    # ------------------------------------------------------------------
    # Time-domain path
    # ------------------------------------------------------------------
    def render_input_noise(
        self, n_samples: int, sample_rate: float, rng: GeneratorLike = None
    ) -> Waveform:
        """Render the amplifier's input-referred noise as a waveform.

        The voltage- and current-noise contributors are generated as
        independent Gaussian processes with the model's spot densities
        (including 1/f corners); the feedback-network Johnson noise is
        white.
        """
        gen = make_rng(rng)
        rs = self.source_resistance_ohm
        rp = self.feedback_parallel_ohm
        r_eq = float(np.hypot(rs, rp))

        en_source = ShapedNoiseSource.one_over_f(
            self.opamp.en_v_per_rthz**2, self.opamp.en_corner_hz
        )
        total = en_source.render(n_samples, sample_rate, gen)

        if self.opamp.in_a_per_rthz > 0 and r_eq > 0:
            in_source = ShapedNoiseSource.one_over_f(
                (self.opamp.in_a_per_rthz * r_eq) ** 2, self.opamp.in_corner_hz
            )
            total = total + in_source.render(n_samples, sample_rate, gen)

        johnson_density = self.feedback_johnson_density
        if johnson_density > 0:
            johnson = GaussianNoiseSource.from_density(johnson_density, sample_rate)
            total = total + johnson.render(n_samples, sample_rate, gen)
        return total

    def render_input_noise_batch(
        self, n_samples: int, sample_rate: float, rngs, out=None
    ) -> np.ndarray:
        """Stacked input-referred noise records, one per generator.

        Row ``i`` is bit-exact equal to ``render_input_noise(...,
        rngs[i]).samples``: each record's contributors draw from its own
        generator in the serial order (en, then in, then Johnson).  The
        en records land in ``out`` when given (float64, one row per
        generator), which is returned, otherwise in a fresh array; the
        other contributors are rendered one at a time into one pooled
        stack and added in place.
        """
        gens = [make_rng(rng) for rng in rngs]
        rs = self.source_resistance_ohm
        rp = self.feedback_parallel_ohm
        r_eq = float(np.hypot(rs, rp))

        en_source = ShapedNoiseSource.one_over_f(
            self.opamp.en_v_per_rthz**2, self.opamp.en_corner_hz
        )
        total = en_source.render_batch(n_samples, sample_rate, gens, out=out)

        if self.opamp.in_a_per_rthz > 0 and r_eq > 0:
            in_source = ShapedNoiseSource.one_over_f(
                (self.opamp.in_a_per_rthz * r_eq) ** 2, self.opamp.in_corner_hz
            )
            total += in_source.render_batch(
                n_samples,
                sample_rate,
                gens,
                out=default_pool.take("amplifier.contributor", total.shape),
            )

        johnson_density = self.feedback_johnson_density
        if johnson_density > 0:
            johnson = GaussianNoiseSource.from_density(johnson_density, sample_rate)
            total += johnson.render_batch(
                n_samples,
                sample_rate,
                gens,
                out=default_pool.take("amplifier.contributor", total.shape),
            )
        return total

    def process(
        self,
        input_wave: Waveform,
        rng: GeneratorLike = None,
        include_noise: bool = True,
    ) -> Waveform:
        """Amplify a waveform: add input noise, band-limit, apply gain.

        The closed-loop single-pole filter is applied to the summed input
        (signal + amplifier noise), then the actual (drifted) gain scales
        the result — matching how the physical closed loop shapes both
        signal and noise identically.
        """
        if not isinstance(input_wave, Waveform):
            raise ConfigurationError(
                f"input must be a Waveform, got {type(input_wave).__name__}"
            )
        total = input_wave
        if include_noise:
            noise = self.render_input_noise(
                input_wave.n_samples, input_wave.sample_rate, rng
            )
            total = total + noise
        if self.bandwidth_hz < input_wave.nyquist:
            total = single_pole_lowpass(total, self.bandwidth_hz)
        return total.scaled(self.actual_gain)

    def process_batch(
        self,
        records: np.ndarray,
        sample_rate: float,
        rngs=None,
        include_noise: bool = True,
    ) -> np.ndarray:
        """Amplify a stack of records (batch form of :meth:`process`).

        ``records`` is ``(n_records, n_samples)``; ``rngs`` supplies one
        generator per record for the amplifier's own noise.  Row ``i``
        is bit-exact equal to ``process(Waveform(records[i],
        sample_rate), rngs[i]).samples``.
        """
        arr = np.asarray(records, dtype=float)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"records must be a 2-D array, got shape {arr.shape}"
            )
        if sample_rate <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {sample_rate}"
            )
        total = arr
        if include_noise:
            if rngs is None:
                rngs = [None] * arr.shape[0]
            rngs = list(rngs)
            if len(rngs) != arr.shape[0]:
                raise ConfigurationError(
                    f"got {arr.shape[0]} records but {len(rngs)} generators"
                )
            noise = self.render_input_noise_batch(
                arr.shape[-1],
                sample_rate,
                rngs,
                out=default_pool.take("amplifier.noise", arr.shape),
            )
            total = np.add(arr, noise, out=noise)
        if self.bandwidth_hz >= sample_rate / 2.0:
            return total * self.actual_gain
        # lfilter's output is fresh, so it is scaled in place.
        total = single_pole_lowpass_array(total, sample_rate, self.bandwidth_hz)
        total *= self.actual_gain
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"NonInvertingAmplifier({self.name}, Av={self.gain:g}, "
            f"BW={self.bandwidth_hz:g} Hz, Rs={self.source_resistance_ohm:g})"
        )
