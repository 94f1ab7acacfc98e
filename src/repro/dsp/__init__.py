"""DSP substrate: spectral estimation built from scratch on ``numpy.fft``.

The paper's post-processing (Matlab, FFT size 1e4 on 1e6 samples) is a
Welch-style averaged periodogram.  This package reimplements that pipeline:
window functions, periodogram/Welch PSD estimators, a :class:`Spectrum`
container with band-power integration and line exclusion, FFT-based
autocorrelation, plain power utilities and popcount moments of packed
1-bit records.  There is one Welch: packed records go through the same
blocked kernel as float records, one FFT block unpacked at a time.
"""

from repro.dsp.autocorr import autocorrelation, normalized_autocorrelation
from repro.dsp.bitstats import packed_mean, packed_mean_square, popcount
from repro.dsp.power import band_power_from_spectrum, mean_square, power_ratio_db
from repro.dsp.psd import periodogram, welch, welch_batch
from repro.dsp.spectrum import Spectrum, SpectrumBatch
from repro.dsp.windows import get_window, window_gains

__all__ = [
    "get_window",
    "window_gains",
    "periodogram",
    "welch",
    "welch_batch",
    "Spectrum",
    "SpectrumBatch",
    "autocorrelation",
    "normalized_autocorrelation",
    "mean_square",
    "power_ratio_db",
    "band_power_from_spectrum",
    "popcount",
    "packed_mean",
    "packed_mean_square",
]
