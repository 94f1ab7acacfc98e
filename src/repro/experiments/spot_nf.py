"""Extension experiment: spot NF vs frequency for a 1/f-dominated DUT.

One hot/cold acquisition pair yields NF in every octave band; the
analytical model (same densities, integrated per band) provides the
expected curve.  A flicker-heavy opamp makes the low-frequency bands
read several dB higher — the shape both paths must agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.noise_analysis import expected_noise_figure_db, noise_budget
from repro.analog.opamp import OpAmpNoiseModel
from repro.constants import T0_KELVIN
from repro.core.spot_nf import SpotNoiseFigureSweep, octave_bands
from repro.engine import MeasurementEngine
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, spawn_rngs

#: A flicker-heavy device: 3 kHz 1/f corner puts several dB of NF slope
#: inside the measurement span.
FLICKER_OPAMP = OpAmpNoiseModel(
    name="flicker",
    en_v_per_rthz=8e-9,
    in_a_per_rthz=0.0,
    en_corner_hz=3000.0,
    gbw_hz=8e6,
)


@dataclass(frozen=True)
class SpotNfRow:
    """Measured vs expected NF in one octave band.

    ``measured_nf_db`` comes from the raw bitstream PSD (the paper's
    linear-approximation path); ``corrected_nf_db`` from the Van
    Vleck-inverted Blackman-Tukey PSD.  When hot and cold spectral
    *shapes* differ (flicker-heavy DUT, white-dominated hot source) the
    limiter's third-order distortion no longer cancels between states
    and the linear path biases; the correction removes that bias.
    """

    f_low_hz: float
    f_high_hz: float
    expected_nf_db: float
    measured_nf_db: float
    error_db: float
    corrected_nf_db: float
    corrected_error_db: float


@dataclass(frozen=True)
class SpotNfExperimentResult:
    """The full NF(f) comparison."""

    rows: List[SpotNfRow]

    @property
    def slope_db(self) -> float:
        """Measured NF drop from the lowest to the highest band."""
        return self.rows[0].measured_nf_db - self.rows[-1].measured_nf_db

    @property
    def expected_slope_db(self) -> float:
        """Analytical NF drop across the same bands."""
        return self.rows[0].expected_nf_db - self.rows[-1].expected_nf_db

    @property
    def max_abs_error_db(self) -> float:
        """Worst per-band |measured - expected| (linear path)."""
        return max(abs(r.error_db) for r in self.rows)

    @property
    def max_abs_corrected_error_db(self) -> float:
        """Worst per-band error of the Van Vleck-corrected path."""
        return max(abs(r.corrected_error_db) for r in self.rows)


def run_spot_nf(
    opamp: Optional[OpAmpNoiseModel] = None,
    f_start_hz: float = 125.0,
    n_bands: int = 4,
    n_samples: int = 2**19,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> SpotNfExperimentResult:
    """Measure NF per octave band and compare against the analysis.

    The hot temperature is chosen from the *worst* (lowest) band so the
    Y factor stays usable everywhere: with a fixed-ENR source a
    high-flicker band would collapse Y toward 1 (see EXPERIMENTS.md).
    """
    model = opamp if opamp is not None else FLICKER_OPAMP
    engine = engine if engine is not None else MeasurementEngine()
    probe = NonInvertingAmplifier(model, 10_000.0, 100.0, 600.0)
    worst_te = (
        noise_budget(probe, f_start_hz, 2.0 * f_start_hz).noise_factor - 1.0
    ) * T0_KELVIN
    t_hot = max(2900.0, 2.0 * (T0_KELVIN + worst_te) - worst_te)
    # A hotter source widens the hot/cold level gap; size the reference
    # from the cold RMS such that the *hot* state stays inside the
    # 10-40 % window of figure 10.
    bench = build_prototype_testbench(
        model, t_hot_k=t_hot, n_samples=n_samples, reference_ratio=0.35
    )
    bands = octave_bands(f_start_hz, n_bands, bench.sample_rate_hz / 2.0)

    estimator = bench.make_estimator()
    sweep = SpotNoiseFigureSweep(estimator, bands)
    records, _ = engine.acquire(bench, ["hot", "cold"], spawn_rngs(seed, 2))
    bits_hot, bits_cold = (records[i].to_waveform() for i in range(2))
    linear = sweep.estimate(bits_hot, bits_cold)

    # Van Vleck-corrected path (Blackman-Tukey on the inverted
    # autocorrelation); max_lag keeps the reference on-bin:
    # df = fs / (2*max_lag) = 4 Hz for fs = 32768 Hz.
    from repro.core.definitions import YFactorResult
    from repro.digitizer.arcsine import corrected_psd

    max_lag = int(bench.sample_rate_hz / (2.0 * estimator.config.bin_spacing_hz))
    spec_hot = corrected_psd(bits_hot, max_lag)
    spec_cold = corrected_psd(bits_cold, max_lag)
    norm = estimator.normalizer.normalize_pair(spec_hot, spec_cold)

    rows = []
    for point in linear.points:
        expected = expected_noise_figure_db(
            bench.dut, point.f_low_hz, point.f_high_hz
        )
        p_hot, p_cold = estimator.normalizer.normalized_band_powers(
            norm, point.f_low_hz, point.f_high_hz
        )
        corrected = YFactorResult.from_y(
            p_hot / p_cold, estimator.t_hot_k, estimator.t_cold_k
        ).noise_figure_db
        rows.append(
            SpotNfRow(
                f_low_hz=point.f_low_hz,
                f_high_hz=point.f_high_hz,
                expected_nf_db=expected,
                measured_nf_db=point.noise_figure_db,
                error_db=point.noise_figure_db - expected,
                corrected_nf_db=corrected,
                corrected_error_db=corrected - expected,
            )
        )
    return SpotNfExperimentResult(rows=rows)
