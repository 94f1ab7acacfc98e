"""BIST controller: orchestrates a measurement on SoC resources.

Runs the two-state acquisition through :class:`SampleMemory` (captures are
bit-packed into the shared SRAM) and charges the full DSP pipeline to a
:class:`DSPProcessor`, producing both the noise-figure result and a
:class:`ResourceReport` that substantiates the paper's "low cost" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.core.bist import BISTResult, OneBitNoiseFigureBIST
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.signals.waveform import Waveform
from repro.soc.memory import SampleMemory
from repro.soc.processor import DSPProcessor


@dataclass(frozen=True)
class ResourceReport:
    """Resources a measurement consumed on the SoC."""

    memory_bytes_peak: int
    memory_bytes_capacity: int
    dsp_cycles: int
    dsp_time_s: float
    acquisition_time_s: float
    cycles_breakdown: Dict[str, int]

    @property
    def total_test_time_s(self) -> float:
        """Acquisition (both states) plus processing time."""
        return self.acquisition_time_s + self.dsp_time_s


@dataclass(frozen=True)
class ControllerOutcome:
    """Result + resource accounting of one controller run."""

    result: BISTResult
    resources: ResourceReport


class BISTController:
    """Coordinates acquisition, storage and DSP for one NF measurement.

    Parameters
    ----------
    estimator:
        The configured 1-bit estimator.
    memory:
        Shared SoC sample memory used to hold both captures.
    processor:
        Cycle-accounting DSP model.
    """

    def __init__(
        self,
        estimator: OneBitNoiseFigureBIST,
        memory: SampleMemory,
        processor: DSPProcessor,
    ):
        if not isinstance(estimator, OneBitNoiseFigureBIST):
            raise ConfigurationError(
                f"estimator must be OneBitNoiseFigureBIST, got "
                f"{type(estimator).__name__}"
            )
        if not isinstance(memory, SampleMemory):
            raise ConfigurationError(
                f"memory must be SampleMemory, got {type(memory).__name__}"
            )
        if not isinstance(processor, DSPProcessor):
            raise ConfigurationError(
                f"processor must be DSPProcessor, got {type(processor).__name__}"
            )
        self.estimator = estimator
        self.memory = memory
        self.processor = processor

    def run(
        self,
        acquire: Callable[[str, GeneratorLike], Waveform],
        rng: GeneratorLike = None,
    ) -> ControllerOutcome:
        """Execute a full two-state measurement with resource accounting.

        ``acquire(state, rng)`` returns the captured bitstream for the
        given noise-source state.
        """
        gen = make_rng(rng)
        rng_hot, rng_cold = spawn_rngs(gen, 2)
        config = self.estimator.config
        self.processor.reset()

        bits_hot = acquire("hot", rng_hot)
        self.memory.store_bitstream("capture_hot", bits_hot)
        bits_cold = acquire("cold", rng_cold)
        self.memory.store_bitstream("capture_cold", bits_cold)
        memory_peak = self.memory.bytes_used

        # Charge the DSP pipeline: two Welch PSDs, line search and two
        # band-power integrations.
        for label in ("hot", "cold"):
            self.processor.cost_welch(
                config.n_samples, config.nperseg, config.overlap, label=f"psd_{label}"
            )
        n_bins = config.nperseg // 2 + 1
        self.processor.cost_band_power(n_bins, label="line-search")
        band_bins = max(
            1,
            int(
                (config.noise_band_hz[1] - config.noise_band_hz[0])
                / config.bin_spacing_hz
            ),
        )
        self.processor.cost_band_power(band_bins, label="band-power-hot")
        self.processor.cost_band_power(band_bins, label="band-power-cold")

        # Analyze straight from the packed SRAM records: the Welch
        # kernel unpacks one FFT block at a time, so the DSP never
        # materializes a float copy of a full capture.
        result = self.estimator.estimate_from_bitstreams(
            self.memory.load_packed("capture_hot"),
            self.memory.load_packed("capture_cold"),
        )

        report = ResourceReport(
            memory_bytes_peak=memory_peak,
            memory_bytes_capacity=self.memory.capacity_bytes,
            dsp_cycles=self.processor.total_cycles,
            dsp_time_s=self.processor.execution_time_s,
            acquisition_time_s=2.0 * config.duration_s,
            cycles_breakdown=self.processor.breakdown(),
        )
        self.memory.free("capture_hot")
        self.memory.free("capture_cold")
        return ControllerOutcome(result=result, resources=report)

    # ------------------------------------------------------------------
    def adc_alternative_memory_bytes(self, bits_per_sample: int = 12) -> int:
        """Memory a full-ADC capture of the same records would need.

        Used by the resource ablation bench to quantify the 1-bit
        advantage (the paper's motivation for replacing the ADC path).
        """
        n = self.estimator.config.n_samples
        return 2 * SampleMemory.words_required(n, bits_per_sample)
