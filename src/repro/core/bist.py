"""End-to-end 1-bit BIST noise-figure estimation (paper sections 4.3 & 5).

:class:`OneBitNoiseFigureBIST` consumes the two bitstreams the digitizer
captured in the hot and cold noise-source states and produces the noise
figure:

1. Welch PSD of each bitstream (the paper: 1e6 samples, FFT size 1e4);
2. locate the constant-amplitude reference line, normalize both spectra to
   unit line power (:mod:`repro.core.normalization`);
3. integrate the noise band power in each normalized spectrum, excluding
   the reference line and its harmonics;
4. ``Y = P_hot / P_cold`` and eq 8/9 give the noise factor.

The two-state acquisition that feeds it is
:meth:`repro.engine.MeasurementEngine.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.constants import T0_KELVIN
from repro.core.definitions import YFactorResult
from repro.core.normalization import NormalizationResult, ReferenceNormalizer
from repro.dsp.psd import welch
from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.waveform import Waveform


@dataclass(frozen=True)
class BISTMeasurementConfig:
    """Acquisition and analysis parameters of a 1-bit NF measurement.

    Parameters
    ----------
    sample_rate_hz:
        Bitstream sample rate.
    n_samples:
        Record length per state (the paper captures 1e6 samples).
    nperseg:
        Welch segment / FFT length (the paper uses 1e4).
    reference_frequency_hz:
        Nominal reference-waveform frequency.
    noise_band_hz:
        ``(f_low, f_high)`` band whose normalized power forms the Y ratio.
    harmonic_kind:
        Harmonics to exclude: ``"odd"`` for a square reference, ``"all"``
        for a sine through the nonlinear limiter, ``"none"`` to disable.
    window / overlap:
        Welch analysis window and fractional overlap.
    search_halfwidth_hz / line_integration_halfwidth_hz /
    exclusion_halfwidth_hz:
        Reference-line handling; defaults derive from the bin spacing
        ``sample_rate/nperseg`` (5 bins search, window ENBW integration,
        3 x integration exclusion).
    """

    sample_rate_hz: float
    n_samples: int
    nperseg: int
    reference_frequency_hz: float
    noise_band_hz: Tuple[float, float]
    harmonic_kind: str = "odd"
    window: str = "hann"
    overlap: float = 0.5
    search_halfwidth_hz: Optional[float] = None
    line_integration_halfwidth_hz: Optional[float] = None
    exclusion_halfwidth_hz: Optional[float] = None
    subtract_line_floor: bool = True

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {self.sample_rate_hz}"
            )
        if self.n_samples < self.nperseg:
            raise ConfigurationError(
                f"n_samples ({self.n_samples}) must be >= nperseg "
                f"({self.nperseg})"
            )
        if self.nperseg < 8:
            raise ConfigurationError(f"nperseg must be >= 8, got {self.nperseg}")
        f_low, f_high = self.noise_band_hz
        nyquist = self.sample_rate_hz / 2.0
        if not 0 < f_low < f_high <= nyquist:
            raise ConfigurationError(
                f"noise band must satisfy 0 < f_low < f_high <= Nyquist "
                f"({nyquist} Hz), got {self.noise_band_hz}"
            )
        if not 0 < self.reference_frequency_hz < nyquist:
            raise ConfigurationError(
                "reference frequency must lie below Nyquist, got "
                f"{self.reference_frequency_hz} Hz"
            )

    @property
    def bin_spacing_hz(self) -> float:
        """Welch bin spacing ``fs / nperseg``."""
        return self.sample_rate_hz / self.nperseg

    @property
    def duration_s(self) -> float:
        """Record duration per state."""
        return self.n_samples / self.sample_rate_hz

    def make_normalizer(self) -> ReferenceNormalizer:
        """Build the reference normalizer implied by this configuration."""
        df = self.bin_spacing_hz
        search = (
            self.search_halfwidth_hz
            if self.search_halfwidth_hz is not None
            else 5.0 * df
        )
        return ReferenceNormalizer(
            reference_frequency_hz=self.reference_frequency_hz,
            search_halfwidth_hz=search,
            integration_halfwidth_hz=self.line_integration_halfwidth_hz,
            harmonic_kind=self.harmonic_kind,
            exclusion_halfwidth_hz=self.exclusion_halfwidth_hz,
            subtract_floor=self.subtract_line_floor,
        )


@dataclass(frozen=True)
class BISTResult:
    """Full outcome of a 1-bit BIST noise-figure measurement."""

    y: float
    noise_factor: float
    noise_figure_db: float
    noise_temperature_k: float
    band_power_hot: float
    band_power_cold: float
    normalization: NormalizationResult
    t_hot_k: float
    t_cold_k: float

    @property
    def y_factor_result(self) -> YFactorResult:
        """The result in the generic Y-factor record form."""
        return YFactorResult(
            y=self.y,
            noise_factor=self.noise_factor,
            noise_figure_db=self.noise_figure_db,
            noise_temperature_k=self.noise_temperature_k,
            p_hot=self.band_power_hot,
            p_cold=self.band_power_cold,
        )


def check_bitstream_samples(samples, label: str) -> None:
    """Validate a +/-1 bitstream in whatever representation it arrives.

    Packed records (:class:`~repro.bitstream.PackedBitstream` /
    :class:`~repro.bitstream.PackedRecordBatch`) are validated directly
    on the packed words — every stored bit decodes to a valid ``+/-1``
    sample, so the check reduces to the O(1) padding-bit invariant and
    no unpack round-trip happens.  Float arrays get the vectorized
    ``|x| == 1`` pass — the seed's ``np.unique`` sorted every
    1e6-sample record (O(n log n)) on each call.  Stacked batches are
    checked row by row so the scratch stays one record wide; the sorted
    diagnostic is only computed on failure.
    """
    if isinstance(samples, (PackedBitstream, PackedRecordBatch)):
        try:
            samples.validate()
        except ConfigurationError as exc:
            raise ConfigurationError(f"{label} bitstream invalid: {exc}")
        return
    arr = np.asarray(samples)
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr[np.newaxis]
    if all(bool(np.all(np.abs(row) == 1.0)) for row in rows):
        return
    bad = np.unique(arr[np.abs(arr) != 1.0])
    raise ConfigurationError(
        f"{label} bitstream must contain only +/-1 values, found "
        f"{bad[:5]}"
    )


def _check_bitstream(wave, label: str) -> None:
    if isinstance(wave, PackedBitstream):
        check_bitstream_samples(wave, label)
        return
    check_bitstream_samples(wave.samples, label)


class OneBitNoiseFigureBIST:
    """The proposed method: noise figure from two 1-bit acquisitions.

    Parameters
    ----------
    config:
        Acquisition/analysis configuration.
    t_hot_k / t_cold_k:
        Calibrated noise-source temperatures (eq 8).
    t0_k:
        Reference temperature (290 K).
    """

    def __init__(
        self,
        config: BISTMeasurementConfig,
        t_hot_k: float,
        t_cold_k: float = T0_KELVIN,
        t0_k: float = T0_KELVIN,
    ):
        if not isinstance(config, BISTMeasurementConfig):
            raise ConfigurationError(
                f"config must be a BISTMeasurementConfig, got "
                f"{type(config).__name__}"
            )
        if t_hot_k <= t_cold_k:
            raise ConfigurationError(
                f"hot temperature ({t_hot_k} K) must exceed cold ({t_cold_k} K)"
            )
        self.config = config
        self.t_hot_k = float(t_hot_k)
        self.t_cold_k = float(t_cold_k)
        self.t0_k = float(t0_k)
        self._normalizer = config.make_normalizer()

    # ------------------------------------------------------------------
    @property
    def normalizer(self) -> ReferenceNormalizer:
        """The reference-line normalizer in use."""
        return self._normalizer

    def spectrum_of(
        self, bitstream: Union[Waveform, PackedBitstream]
    ) -> Spectrum:
        """Welch PSD of a (float or packed) bitstream with the
        configured parameters.  Packed records unpack one FFT block at
        a time and yield bit-identical PSDs."""
        return welch(
            bitstream,
            nperseg=self.config.nperseg,
            window=self.config.window,
            overlap=self.config.overlap,
            detrend=True,
        )

    def estimate_from_bitstreams(
        self,
        bits_hot: Union[Waveform, PackedBitstream],
        bits_cold: Union[Waveform, PackedBitstream],
    ) -> BISTResult:
        """Run the full pipeline on captured hot/cold bitstreams.

        Both captures may be float waveforms or packed records
        (:class:`~repro.bitstream.PackedBitstream`); results are
        identical either way.
        """
        _check_bitstream(bits_hot, "hot")
        _check_bitstream(bits_cold, "cold")
        if bits_hot.sample_rate != self.config.sample_rate_hz:
            raise ConfigurationError(
                f"hot bitstream rate {bits_hot.sample_rate} Hz does not "
                f"match configured {self.config.sample_rate_hz} Hz"
            )
        if bits_cold.sample_rate != self.config.sample_rate_hz:
            raise ConfigurationError(
                f"cold bitstream rate {bits_cold.sample_rate} Hz does not "
                f"match configured {self.config.sample_rate_hz} Hz"
            )
        spec_hot = self.spectrum_of(bits_hot)
        spec_cold = self.spectrum_of(bits_cold)
        return self.estimate_from_spectra(spec_hot, spec_cold)

    def estimate_from_spectra(
        self, spec_hot: Spectrum, spec_cold: Spectrum
    ) -> BISTResult:
        """Run normalization + Y-factor on precomputed bitstream PSDs."""
        norm = self._normalizer.normalize_pair(spec_hot, spec_cold)
        f_low, f_high = self.config.noise_band_hz
        p_hot, p_cold = self._normalizer.normalized_band_powers(
            norm, f_low, f_high
        )
        if p_cold <= 0:
            raise MeasurementError("cold band power is zero after exclusion")
        y = p_hot / p_cold
        result = YFactorResult.from_y(
            y, self.t_hot_k, self.t_cold_k, self.t0_k, p_hot=p_hot, p_cold=p_cold
        )
        return BISTResult(
            y=y,
            noise_factor=result.noise_factor,
            noise_figure_db=result.noise_figure_db,
            noise_temperature_k=result.noise_temperature_k,
            band_power_hot=p_hot,
            band_power_cold=p_cold,
            normalization=norm,
            t_hot_k=self.t_hot_k,
            t_cold_k=self.t_cold_k,
        )
