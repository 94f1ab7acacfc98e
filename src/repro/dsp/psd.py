"""Power-spectral-density estimators (periodogram and Welch), from scratch.

Scaling convention: one-sided PSD in V^2/Hz such that
``sum(psd) * df == mean_square(signal)`` for the periodogram of a
stationary signal (Parseval).  The Welch estimator averages modified
periodograms of overlapping windowed segments, exactly what the paper's
Matlab post-processing (1e6 samples, FFT size 1e4) performs.

The Welch hot path is fully vectorized: segments are framed with
``numpy.lib.stride_tricks.sliding_window_view`` (a zero-copy view) and
transformed with batched real-FFT calls over blocks of segments.
Blocks rather than one monolithic ``(n_segments, nperseg)`` transform keep
the detrend/window/square intermediates cache-resident, which on
memory-bandwidth-limited hosts is roughly 2x faster than either the
per-segment loop or the single giant batch.  ``welch_batch`` extends the
same kernel across a stack of records — the
``(n_records, n_segments, nperseg)`` framing used by the measurement
engine (:mod:`repro.engine`).

Both estimators also accept packed 1-bit records
(:class:`~repro.bitstream.PackedBitstream` /
:class:`~repro.bitstream.PackedRecordBatch`): the kernel unpacks one
FFT block at a time into a pooled scratch buffer, so a paper-scale
record is held at ~1 bit/sample for its whole analysis.  Because the
unpacked floats and the block boundaries are identical to the float
path, packed PSDs are bit-identical to their float64 counterparts.
That exact packed Welch is the only packed path, in every ``rng_mode``.

The batched transforms call ``numpy.fft.rfft`` directly.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.buffers import default_pool
from repro.dsp.spectrum import Spectrum, SpectrumBatch
from repro.dsp.windows import get_window, window_gains
from repro.errors import ConfigurationError
from repro.signals.waveform import Waveform

#: Segments per batched FFT call.  Chosen so one block's detrended,
#: windowed copy stays inside typical L2/L3 caches at the paper's
#: nperseg = 1e4 (16 x 1e4 doubles = 1.25 MB).
DEFAULT_BLOCK_SEGMENTS = 16


def _as_samples(signal: Union[Waveform, np.ndarray], sample_rate: Optional[float]):
    if isinstance(signal, Waveform):
        return signal.samples, signal.sample_rate
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"signal must be 1-D, got shape {arr.shape}")
    if sample_rate is None or sample_rate <= 0:
        raise ConfigurationError(
            "sample_rate must be provided (and > 0) for raw arrays"
        )
    return arr, float(sample_rate)


def _modified_periodogram(
    segment: np.ndarray, window: np.ndarray, sample_rate: float
) -> np.ndarray:
    """One-sided modified periodogram of a single segment (V^2/Hz)."""
    n = segment.size
    windowed = segment * window
    spectrum = np.fft.rfft(windowed)
    # Normalize by the window noise power so white noise of variance s^2
    # yields a flat density 2*s^2/fs.
    scale = 1.0 / (sample_rate * np.sum(window**2))
    psd = (np.abs(spectrum) ** 2) * scale
    # One-sided: double everything except DC (and Nyquist for even n).
    if n % 2 == 0:
        psd[1:-1] *= 2.0
    else:
        psd[1:] *= 2.0
    return psd


def frame_segments(samples: np.ndarray, nperseg: int, step: int) -> np.ndarray:
    """Frame ``samples`` into overlapping segments along the last axis.

    Returns a zero-copy read-only view of shape
    ``(..., n_segments, nperseg)`` with ``n_segments = 1 + (n - nperseg)
    // step`` — the segment set the seed's per-segment loop iterated over.
    """
    n = samples.shape[-1]
    if n < nperseg:
        raise ConfigurationError(
            f"record has {n} samples but nperseg={nperseg}"
        )
    n_segments = 1 + (n - nperseg) // step
    view = sliding_window_view(samples, nperseg, axis=-1)
    return view[..., ::step, :][..., :n_segments, :]


def accumulate_spectral_power(
    segments: np.ndarray,
    window: np.ndarray,
    acc: np.ndarray,
    detrend: bool,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
) -> None:
    """Add ``sum_k |rfft(detrend(seg_k) * window)|^2`` into ``acc`` in place.

    ``segments`` is a ``(n_segments, nperseg)`` (possibly strided) view;
    the FFT is issued over blocks of ``block_segments`` rows so no
    per-segment Python-level FFT loop remains and the working set stays
    cache-resident.  Scaling to a one-sided density is the caller's job.
    """
    n_segments = segments.shape[0]
    nperseg = segments.shape[-1]
    # One pooled scratch holds the detrended/windowed copy of a block,
    # so neither branch faults a fresh temporary per block (the
    # detrend=False branch used to allocate the windowed copy anyway).
    scratch = default_pool.take(
        "psd.windowed_block", (block_segments, nperseg)
    )
    for start in range(0, n_segments, block_segments):
        block = segments[start : start + block_segments]
        buf = scratch[: block.shape[0]]
        if detrend:
            np.subtract(block, block.mean(axis=-1, keepdims=True), out=buf)
            buf *= window
        else:
            np.multiply(block, window, out=buf)
        spectra = np.fft.rfft(buf, axis=-1)
        power = spectra.real**2
        power += spectra.imag**2
        acc += power.sum(axis=0)


def accumulate_packed_spectral_power(
    packed: PackedBitstream,
    nperseg: int,
    step: int,
    window: np.ndarray,
    acc: np.ndarray,
    detrend: bool,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
) -> int:
    """Blocked :func:`accumulate_spectral_power` over a packed record.

    Unpacks only the samples one FFT block needs (a pooled float
    scratch of ``(block_segments - 1) * step + nperseg`` samples), so
    the record itself stays at 1 bit/sample.  Block boundaries and
    arithmetic match the float path exactly, so the accumulated sums
    are bit-identical.  Returns the number of segments accumulated.
    """
    n_segments = 1 + (packed.n_samples - nperseg) // step
    scratch = default_pool.take(
        "psd.unpack_block", (block_segments - 1) * step + nperseg
    )
    for start in range(0, n_segments, block_segments):
        nb = min(block_segments, n_segments - start)
        lo = start * step
        hi = (start + nb - 1) * step + nperseg
        samples = packed.unpack_range(lo, hi, out=scratch)
        segments = frame_segments(samples, nperseg, step)
        accumulate_spectral_power(
            segments[:nb], window, acc, detrend, block_segments
        )
    return n_segments


def _one_sided_scale(acc: np.ndarray, nperseg: int, denominator: float) -> np.ndarray:
    """Convert an accumulated ``sum |S|^2`` into a one-sided density."""
    psd = acc / denominator
    if nperseg % 2 == 0:
        psd[..., 1:-1] *= 2.0
    else:
        psd[..., 1:] *= 2.0
    return psd


def periodogram(
    signal: Union[Waveform, np.ndarray],
    sample_rate: Optional[float] = None,
    window: str = "rectangular",
    detrend: bool = False,
) -> Spectrum:
    """Single-segment one-sided periodogram.

    Parameters
    ----------
    signal:
        Waveform (preferred) or raw array plus ``sample_rate``.
    window:
        Window name (see :mod:`repro.dsp.windows`).
    detrend:
        Remove the sample mean before transforming.
    """
    samples, fs = _as_samples(signal, sample_rate)
    if samples.size < 2:
        raise ConfigurationError("periodogram needs at least two samples")
    if detrend:
        samples = samples - np.mean(samples)
    win = get_window(window, samples.size)
    psd = _modified_periodogram(samples, win, fs)
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / fs)
    _, noise_gain = window_gains(win)
    coherent_gain = float(np.mean(win))
    enbw_hz = fs * noise_gain / (coherent_gain**2) / samples.size
    return Spectrum(freqs, psd, enbw_hz=enbw_hz)


def _welch_params(nperseg: int, overlap: float, n_samples: int):
    if nperseg < 2:
        raise ConfigurationError(f"nperseg must be >= 2, got {nperseg}")
    if n_samples < nperseg:
        raise ConfigurationError(
            f"signal has {n_samples} samples but nperseg={nperseg}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    return max(1, int(round(nperseg * (1.0 - overlap))))


def _welch_grid(win: np.ndarray, nperseg: int, fs: float):
    freqs = np.fft.rfftfreq(nperseg, d=1.0 / fs)
    coherent_gain, noise_gain = window_gains(win)
    enbw_hz = fs * noise_gain / (coherent_gain**2) / nperseg
    return freqs, enbw_hz


def welch(
    signal: Union[Waveform, np.ndarray, PackedBitstream],
    nperseg: int,
    sample_rate: Optional[float] = None,
    window: str = "hann",
    overlap: float = 0.5,
    detrend: bool = True,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
) -> Spectrum:
    """Welch-averaged one-sided PSD: row 0 of :func:`welch_batch` on a
    one-record batch, so a record's PSD is the same alone or stacked.

    Parameters
    ----------
    signal:
        Waveform, raw array plus ``sample_rate``, or a packed 1-bit
        record (:class:`~repro.bitstream.PackedBitstream`) — the packed
        path unpacks one FFT block at a time and is bit-identical to
        analyzing the unpacked float record.
    nperseg:
        Segment (FFT) length; the paper uses 1e4 on 1e6-sample records.
    overlap:
        Fractional overlap between segments in ``[0, 1)``; 0.5 is standard
        for Hann windows.
    detrend:
        Remove each segment's mean (suppresses DC leakage).
    block_segments:
        Segments per batched FFT call (cache-residency knob).
    """
    if isinstance(signal, PackedBitstream):
        records = PackedRecordBatch(
            signal.words[np.newaxis],
            signal.n_samples,
            signal.sample_rate,
            validate=False,
            copy=False,
        )
    else:
        samples, sample_rate = _as_samples(signal, sample_rate)
        records = samples[np.newaxis]
    return welch_batch(
        records, nperseg, sample_rate, window, overlap, detrend,
        block_segments,
    )[0]


def welch_batch(
    records: Union[np.ndarray, PackedRecordBatch],
    nperseg: int,
    sample_rate: Optional[float] = None,
    window: str = "hann",
    overlap: float = 0.5,
    detrend: bool = True,
    block_segments: int = DEFAULT_BLOCK_SEGMENTS,
) -> SpectrumBatch:
    """Welch PSDs of a stack of records in one batched pipeline.

    ``records`` is a ``(n_records, n_samples)`` array or a
    :class:`~repro.bitstream.PackedRecordBatch`; each record's segments
    go through the same blocked batched FFT kernel, and each row is
    computed on its own, so row ``i`` equals ``welch(records[i], ...)``
    bit for bit (:func:`welch` is this function on one row).  Packed
    batches are unpacked one FFT block at a time — peak float memory is
    one block, not the record stack.  ``sample_rate`` may be omitted for
    packed batches (they carry their rate).

    Returns a :class:`~repro.dsp.spectrum.SpectrumBatch` whose ``psd``
    matrix has one row per record.
    """
    if isinstance(records, PackedRecordBatch):
        fs = records.sample_rate
        if sample_rate is not None and float(sample_rate) != fs:
            raise ConfigurationError(
                f"sample_rate {sample_rate} Hz does not match the packed "
                f"batch rate {fs} Hz"
            )
        step = _welch_params(nperseg, overlap, records.n_samples)
        win = get_window(window, nperseg)
        accs = np.zeros((records.n_records, nperseg // 2 + 1))
        n_segments = 1
        for r in range(records.n_records):
            n_segments = accumulate_packed_spectral_power(
                records[r], nperseg, step, win, accs[r], detrend,
                block_segments,
            )
    else:
        arr = np.asarray(records, dtype=float)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ConfigurationError(
                f"records must be a (n_records, n_samples) array, got "
                f"shape {arr.shape}"
            )
        if sample_rate is None or sample_rate <= 0:
            raise ConfigurationError(
                f"sample_rate must be > 0, got {sample_rate}"
            )
        fs = float(sample_rate)
        step = _welch_params(nperseg, overlap, arr.shape[-1])
        win = get_window(window, nperseg)
        frames = frame_segments(arr, nperseg, step)  # (R, n_segments, nperseg)
        n_segments = frames.shape[1]
        accs = np.zeros((frames.shape[0], nperseg // 2 + 1))
        for r in range(frames.shape[0]):
            accumulate_spectral_power(
                frames[r], win, accs[r], detrend, block_segments
            )
    psd = _one_sided_scale(accs, nperseg, fs * np.sum(win**2) * n_segments)
    freqs, enbw_hz = _welch_grid(win, nperseg, fs)
    return SpectrumBatch(freqs, psd, enbw_hz=enbw_hz)
