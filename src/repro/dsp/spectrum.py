"""One-sided power-spectral-density container.

:class:`Spectrum` is what the PSD estimators return and what the
reference-line normalization of the paper operates on: it supports band
power integration with exclusion zones (so the reference line and its
harmonics can be excluded, cf. Table 2's "1-bit PSD ratio excluding
reference"), line-power measurement around a nominal frequency and
rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MeasurementError


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD on a uniform frequency grid.

    Parameters
    ----------
    frequencies:
        Bin center frequencies in Hz, uniformly spaced from 0.
    psd:
        One-sided power spectral density in V^2/Hz, same length.
    enbw_hz:
        Equivalent noise bandwidth of the analysis window in Hz; needed to
        convert a spectral line's peak density into line power.
    """

    frequencies: np.ndarray
    psd: np.ndarray
    enbw_hz: float

    def __init__(self, frequencies, psd, enbw_hz: Optional[float] = None):
        f = np.asarray(frequencies, dtype=float)
        p = np.asarray(psd, dtype=float)
        if f.ndim != 1 or p.ndim != 1 or f.size != p.size:
            raise ConfigurationError(
                f"frequencies and psd must be equal-length 1-D arrays, got "
                f"{f.shape} and {p.shape}"
            )
        if f.size < 2:
            raise ConfigurationError("a spectrum needs at least two bins")
        df = np.diff(f)
        if np.any(df <= 0) or not np.allclose(df, df[0], rtol=1e-9, atol=0.0):
            raise ConfigurationError("frequency grid must be uniform and increasing")
        if np.any(p < 0):
            raise ConfigurationError("PSD values must be non-negative")
        f = f.copy()
        p = p.copy()
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "psd", p)
        object.__setattr__(
            self, "enbw_hz", float(enbw_hz) if enbw_hz is not None else float(df[0])
        )

    # ------------------------------------------------------------------
    @property
    def df(self) -> float:
        """Bin spacing in Hz."""
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def f_max(self) -> float:
        """Highest bin frequency in Hz."""
        return float(self.frequencies[-1])

    def __len__(self) -> int:
        return self.frequencies.size

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "Spectrum":
        """Return the spectrum multiplied by a non-negative power factor."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be >= 0, got {factor}")
        return Spectrum(self.frequencies, self.psd * float(factor), self.enbw_hz)

    def total_power(self) -> float:
        """Integrated power over the full grid (V^2)."""
        return float(np.sum(self.psd) * self.df)

    def _band_indices(self, f_low: float, f_high: float) -> np.ndarray:
        if f_low >= f_high:
            raise ConfigurationError(
                f"band must satisfy f_low < f_high, got [{f_low}, {f_high}]"
            )
        mask = (self.frequencies >= f_low) & (self.frequencies <= f_high)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            raise MeasurementError(
                f"band [{f_low}, {f_high}] Hz contains no spectral bins "
                f"(grid df={self.df} Hz, f_max={self.f_max} Hz)"
            )
        return idx

    def band_power(
        self,
        f_low: float,
        f_high: float,
        exclude: Sequence[Tuple[float, float]] = (),
    ) -> float:
        """Integrated power in ``[f_low, f_high]``, in V^2.

        ``exclude`` is a sequence of ``(center_hz, halfwidth_hz)`` zones
        removed from the integration — this is how the reference line and
        its harmonics are kept out of the noise-power estimate.
        """
        idx = self._band_indices(f_low, f_high)
        keep = np.ones(idx.size, dtype=bool)
        freqs = self.frequencies[idx]
        for center, halfwidth in exclude:
            if halfwidth < 0:
                raise ConfigurationError(
                    f"exclusion halfwidth must be >= 0, got {halfwidth}"
                )
            keep &= np.abs(freqs - center) > halfwidth
        if not np.any(keep):
            raise MeasurementError(
                f"band [{f_low}, {f_high}] Hz is fully excluded"
            )
        return float(np.sum(self.psd[idx][keep]) * self.df)

    def band_mean_density(
        self,
        f_low: float,
        f_high: float,
        exclude: Sequence[Tuple[float, float]] = (),
    ) -> float:
        """Mean PSD density over a band with exclusions (V^2/Hz)."""
        idx = self._band_indices(f_low, f_high)
        keep = np.ones(idx.size, dtype=bool)
        freqs = self.frequencies[idx]
        for center, halfwidth in exclude:
            keep &= np.abs(freqs - center) > halfwidth
        if not np.any(keep):
            raise MeasurementError(f"band [{f_low}, {f_high}] Hz is fully excluded")
        return float(np.mean(self.psd[idx][keep]))

    # ------------------------------------------------------------------
    def find_peak(self, f_nominal: float, search_halfwidth_hz: float) -> Tuple[float, float]:
        """Locate the strongest bin near ``f_nominal``.

        Returns ``(frequency, psd_value)`` of the peak bin within
        ``f_nominal +/- search_halfwidth_hz``.
        """
        if search_halfwidth_hz <= 0:
            raise ConfigurationError(
                f"search halfwidth must be > 0, got {search_halfwidth_hz}"
            )
        idx = self._band_indices(
            max(0.0, f_nominal - search_halfwidth_hz),
            f_nominal + search_halfwidth_hz,
        )
        best = idx[np.argmax(self.psd[idx])]
        return float(self.frequencies[best]), float(self.psd[best])

    def line_power(
        self,
        f_nominal: float,
        search_halfwidth_hz: float,
        integration_halfwidth_hz: Optional[float] = None,
        subtract_floor: bool = True,
    ) -> Tuple[float, float]:
        """Measure the power of a spectral line near ``f_nominal``.

        The line is located by peak search, then its power is integrated
        over ``peak +/- integration_halfwidth_hz`` (default: one window
        ENBW on each side).  Returns ``(line_frequency, line_power_v2)``.

        With ``subtract_floor`` (default) the local noise-floor density —
        the median PSD in an annulus from 2x to 6x the integration
        half-width around the line — is subtracted from the integrated
        window.  Without this correction the floor under the line biases
        weak-line measurements (the hot state of the BIST, whose
        reference-to-noise ratio is smallest).
        """
        peak_f, _ = self.find_peak(f_nominal, search_halfwidth_hz)
        if integration_halfwidth_hz is None:
            integration_halfwidth_hz = self.enbw_hz
        if integration_halfwidth_hz <= 0:
            raise ConfigurationError(
                "integration halfwidth must be > 0, got "
                f"{integration_halfwidth_hz}"
            )
        offsets = np.abs(self.frequencies - peak_f)
        mask = offsets <= integration_halfwidth_hz
        power = float(np.sum(self.psd[mask]) * self.df)
        if subtract_floor:
            annulus = (offsets > 2.0 * integration_halfwidth_hz) & (
                offsets <= 6.0 * integration_halfwidth_hz
            )
            if np.any(annulus):
                floor_density = float(np.median(self.psd[annulus]))
                power -= floor_density * int(np.count_nonzero(mask)) * self.df
        if power <= 0:
            raise MeasurementError(
                f"no line power found at {peak_f} Hz above the local noise "
                "floor"
            )
        return peak_f, power

    def slice_band(self, f_low: float, f_high: float) -> "Spectrum":
        """Return the spectrum restricted to a band (for zoomed plots)."""
        idx = self._band_indices(f_low, f_high)
        if idx.size < 2:
            raise MeasurementError(
                f"band [{f_low}, {f_high}] Hz has fewer than two bins"
            )
        return Spectrum(self.frequencies[idx], self.psd[idx], self.enbw_hz)

    def to_db(self, reference: float = 1.0) -> np.ndarray:
        """PSD in dB relative to ``reference`` (zero bins clipped to -300 dB)."""
        if reference <= 0:
            raise ConfigurationError(f"reference must be > 0, got {reference}")
        safe = np.maximum(self.psd / reference, 1e-30)
        return 10.0 * np.log10(safe)


@dataclass(frozen=True)
class SpectrumBatch:
    """A stack of one-sided PSDs sharing one frequency grid.

    This is the batched counterpart of :class:`Spectrum`, produced by
    :func:`repro.dsp.psd.welch_batch`: ``psd`` holds one record's density
    per row.  Rows are materialized as :class:`Spectrum` objects on
    demand (indexing or :meth:`spectra`), so downstream code written
    against the scalar container keeps working.
    """

    frequencies: np.ndarray
    psd: np.ndarray
    enbw_hz: float

    def __init__(self, frequencies, psd, enbw_hz: Optional[float] = None):
        f = np.asarray(frequencies, dtype=float)
        p = np.asarray(psd, dtype=float)
        if f.ndim != 1 or p.ndim != 2 or p.shape[1] != f.size:
            raise ConfigurationError(
                "frequencies must be 1-D and psd (n_records, n_bins) with "
                f"matching bins, got {f.shape} and {p.shape}"
            )
        if f.size < 2:
            raise ConfigurationError("a spectrum needs at least two bins")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "psd", p)
        object.__setattr__(
            self,
            "enbw_hz",
            float(enbw_hz) if enbw_hz is not None else float(f[1] - f[0]),
        )

    @property
    def n_records(self) -> int:
        """Number of stacked PSDs."""
        return self.psd.shape[0]

    def __len__(self) -> int:
        return self.psd.shape[0]

    def __getitem__(self, index: int) -> Spectrum:
        return Spectrum(self.frequencies, self.psd[index], self.enbw_hz)

    def spectra(self) -> List[Spectrum]:
        """All rows as scalar :class:`Spectrum` objects."""
        return [self[i] for i in range(self.psd.shape[0])]
