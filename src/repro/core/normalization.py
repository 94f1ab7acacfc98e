"""Reference-line spectrum normalization (paper section 5.2).

The 1-bit digitizer destroys absolute power information: the bitstream is
always +/-1, so its total power is 1 regardless of the analog noise level.
The paper's trick is to add a *constant-amplitude* reference waveform at
the comparator input.  Through the limiter a small line of amplitude ``A``
in noise of std ``sigma`` keeps amplitude ``sqrt(2/pi)*A/sigma`` — so the
reference line measures ``1/sigma`` of each acquisition.  Dividing each
bitstream PSD by its own reference-line power rescales both acquisitions
to a common absolute scale, after which the ratio of noise band powers is
the Y factor.

The reference line (and its harmonics, which a square reference and
limiter distortion both produce) must be excluded from the noise band —
the paper's Table 2 shows the error dropping to ~2.5 % once the reference
is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError, MeasurementError

_HARMONIC_KINDS = ("odd", "all", "none")


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of normalizing a hot/cold spectrum pair on the reference line.

    The normalized spectra are scaled such that each has unit reference
    line power; their band powers are then directly comparable.
    """

    hot: Spectrum
    cold: Spectrum
    line_frequency_hot_hz: float
    line_frequency_cold_hz: float
    line_power_hot: float
    line_power_cold: float
    scale_hot: float
    scale_cold: float

    @property
    def line_power_ratio(self) -> float:
        """Cold/hot reference line power ratio (equals the amplitude-
        calibration correction the paper applies in figure 9)."""
        return self.line_power_cold / self.line_power_hot


class ReferenceNormalizer:
    """Locates, measures and excludes the reference line in PSDs.

    Parameters
    ----------
    reference_frequency_hz:
        Nominal reference frequency (the generator setting, e.g. 3 kHz).
    search_halfwidth_hz:
        Peak-search window around the nominal frequency — a low-quality
        generator may be off-frequency; the normalization tracks the main
        component (paper section 6).
    integration_halfwidth_hz:
        Half-width of the line-power integration around the located peak;
        default is the spectrum's window ENBW.
    harmonic_kind:
        Which harmonics to exclude from noise bands: ``"odd"`` (square
        reference), ``"all"`` (conservative, also covers limiter
        intermodulation) or ``"none"``.
    exclusion_halfwidth_hz:
        Half-width of each exclusion zone; default is
        ``3 * integration`` half-width (or 3 bins if unset).
    subtract_floor:
        Subtract the local noise floor from the line-power estimate
        (recommended; the hot-state line is weak relative to the floor).
    """

    def __init__(
        self,
        reference_frequency_hz: float,
        search_halfwidth_hz: float,
        integration_halfwidth_hz: Optional[float] = None,
        harmonic_kind: str = "odd",
        exclusion_halfwidth_hz: Optional[float] = None,
        subtract_floor: bool = True,
    ):
        if reference_frequency_hz <= 0:
            raise ConfigurationError(
                f"reference frequency must be > 0 Hz, got {reference_frequency_hz}"
            )
        if search_halfwidth_hz <= 0:
            raise ConfigurationError(
                f"search halfwidth must be > 0 Hz, got {search_halfwidth_hz}"
            )
        if search_halfwidth_hz >= reference_frequency_hz:
            raise ConfigurationError(
                "search halfwidth must be below the reference frequency "
                f"(got {search_halfwidth_hz} vs {reference_frequency_hz} Hz)"
            )
        if harmonic_kind not in _HARMONIC_KINDS:
            raise ConfigurationError(
                f"harmonic_kind must be one of {_HARMONIC_KINDS}, got "
                f"{harmonic_kind!r}"
            )
        self.reference_frequency_hz = float(reference_frequency_hz)
        self.search_halfwidth_hz = float(search_halfwidth_hz)
        self.integration_halfwidth_hz = (
            float(integration_halfwidth_hz)
            if integration_halfwidth_hz is not None
            else None
        )
        self.harmonic_kind = harmonic_kind
        self.exclusion_halfwidth_hz = (
            float(exclusion_halfwidth_hz)
            if exclusion_halfwidth_hz is not None
            else None
        )
        self.subtract_floor = bool(subtract_floor)

    # ------------------------------------------------------------------
    def line_power(self, spectrum: Spectrum) -> Tuple[float, float]:
        """Locate the reference line and return ``(frequency, power)``."""
        return spectrum.line_power(
            self.reference_frequency_hz,
            self.search_halfwidth_hz,
            self.integration_halfwidth_hz,
            subtract_floor=self.subtract_floor,
        )

    def _exclusion_halfwidth(self, spectrum: Spectrum) -> float:
        if self.exclusion_halfwidth_hz is not None:
            return self.exclusion_halfwidth_hz
        base = (
            self.integration_halfwidth_hz
            if self.integration_halfwidth_hz is not None
            else spectrum.enbw_hz
        )
        return 3.0 * base

    def exclusion_zones(
        self,
        spectrum: Spectrum,
        fundamental_hz: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Exclusion zones covering the reference line and its harmonics.

        Returns ``(center, halfwidth)`` pairs up to the spectrum's maximum
        frequency, based on the located (or provided) fundamental.
        """
        fund = (
            float(fundamental_hz)
            if fundamental_hz is not None
            else self.line_power(spectrum)[0]
        )
        halfwidth = self._exclusion_halfwidth(spectrum)
        zones = [(fund, halfwidth)]
        if self.harmonic_kind == "none":
            return zones
        step = 2 if self.harmonic_kind == "odd" else 1
        order = 1 + step
        while order * fund <= spectrum.f_max + halfwidth:
            zones.append((order * fund, halfwidth))
            order += step
        return zones

    # ------------------------------------------------------------------
    def normalize_pair(
        self, hot_spectrum: Spectrum, cold_spectrum: Spectrum
    ) -> NormalizationResult:
        """Normalize both spectra to unit reference-line power.

        This is the paper's figure 9 correction: after scaling, the
        constant-amplitude reference line measures identically in both
        acquisitions and the noise floors differ by the true power ratio.
        """
        f_hot, p_hot = self.line_power(hot_spectrum)
        f_cold, p_cold = self.line_power(cold_spectrum)
        if p_hot <= 0 or p_cold <= 0:
            raise MeasurementError(
                f"reference line powers must be positive, got hot={p_hot}, "
                f"cold={p_cold}"
            )
        rel_offset = abs(f_hot - f_cold) / self.reference_frequency_hz
        if rel_offset > 0.05:
            raise MeasurementError(
                "reference line found at inconsistent frequencies: "
                f"{f_hot} Hz (hot) vs {f_cold} Hz (cold)"
            )
        scale_hot = 1.0 / p_hot
        scale_cold = 1.0 / p_cold
        return NormalizationResult(
            hot=hot_spectrum.scaled(scale_hot),
            cold=cold_spectrum.scaled(scale_cold),
            line_frequency_hot_hz=f_hot,
            line_frequency_cold_hz=f_cold,
            line_power_hot=p_hot,
            line_power_cold=p_cold,
            scale_hot=scale_hot,
            scale_cold=scale_cold,
        )

    def normalized_band_powers(
        self,
        result: NormalizationResult,
        f_low_hz: float,
        f_high_hz: float,
    ) -> Tuple[float, float]:
        """Noise band powers (hot, cold) with the reference excluded."""
        zones_hot = self.exclusion_zones(result.hot, result.line_frequency_hot_hz)
        zones_cold = self.exclusion_zones(result.cold, result.line_frequency_cold_hz)
        p_hot = result.hot.band_power(f_low_hz, f_high_hz, exclude=zones_hot)
        p_cold = result.cold.band_power(f_low_hz, f_high_hz, exclude=zones_cold)
        return p_hot, p_cold
