"""nfbist — noise figure evaluation using a low-cost 1-bit BIST digitizer.

Reproduction of M. Negreiros, L. Carro, A. A. Susin, "Noise Figure
Evaluation Using Low Cost BIST", DATE 2005.

The package is organized as:

``repro.signals``
    Waveform container and signal/noise sources (the stimulus substrate).
``repro.dsp``
    From-scratch spectral estimation (Welch PSD, windows, band power).
``repro.analog``
    Behavioural analog models: two-ports, opamps, amplifiers, noise sources.
``repro.digitizer``
    The paper's 1-bit digitizer (comparator + sampling latch) and the
    arcsine-law statistics of hard-limited Gaussian processes.
``repro.core``
    The paper's contribution: noise-figure definitions, direct and
    Y-factor methods, reference-line spectrum normalization and the
    end-to-end ``OneBitNoiseFigureBIST`` pipeline.
``repro.soc``
    SoC resource reuse model (sample memory, DSP cycle costs, controller).
``repro.engine``
    Batched measurement engine: stacked-record acquisition, batched
    Welch estimation and sweep fan-out (serial or multiprocess).
``repro.store``
    Persistent measurement result store: provenance-keyed caching,
    resumable sweeps and retest-aware production replans.
``repro.instruments``
    Simulated bench instruments and the Figure-11 prototype testbench.
``repro.experiments``
    One module per paper table/figure, used by benchmarks and examples.
``repro.reporting``
    ASCII rendering of tables and series.
"""

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.buffers import ArrayPool, default_pool
from repro.constants import BOLTZMANN, T0_KELVIN, db_to_linear, linear_to_db
from repro.core.bist import BISTMeasurementConfig, OneBitNoiseFigureBIST
from repro.core.definitions import (
    YFactorResult,
    enr_db,
    f_to_nf,
    nf_to_f,
    noise_factor_from_y,
    noise_factor_from_y_powers,
    noise_figure_from_y,
)
from repro.core.normalization import NormalizationResult, ReferenceNormalizer
from repro.digitizer.digitizer import OneBitDigitizer
from repro.engine import MeasurementEngine
from repro.signals.waveform import Waveform
from repro.store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "BOLTZMANN",
    "T0_KELVIN",
    "db_to_linear",
    "linear_to_db",
    "Waveform",
    "PackedBitstream",
    "PackedRecordBatch",
    "ArrayPool",
    "default_pool",
    "OneBitDigitizer",
    "MeasurementEngine",
    "ResultStore",
    "ReferenceNormalizer",
    "NormalizationResult",
    "OneBitNoiseFigureBIST",
    "BISTMeasurementConfig",
    "YFactorResult",
    "f_to_nf",
    "nf_to_f",
    "enr_db",
    "noise_factor_from_y",
    "noise_factor_from_y_powers",
    "noise_figure_from_y",
    "__version__",
]
