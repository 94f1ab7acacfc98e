"""The "low cost" claim: SoC resources of the 1-bit BIST vs a full ADC.

Runs a complete measurement through the :mod:`repro.soc` controller and
reports memory (bit-packed 1-bit captures vs 12-bit ADC words), DSP
cycles, and total test time; this quantifies sections 1/4/7 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bist import BISTResult
from repro.engine import MeasurementEngine
from repro.instruments.testbench import PrototypeTestbench, build_prototype_testbench
from repro.signals.random import GeneratorLike
from repro.soc.bist_controller import BISTController, ResourceReport
from repro.soc.memory import SampleMemory
from repro.soc.processor import DSPProcessor


@dataclass(frozen=True)
class ResourcesResult:
    """Resource accounting of one full measurement."""

    result: BISTResult
    report: ResourceReport
    adc_memory_bytes_12bit: int
    adc_memory_bytes_8bit: int
    streaming_memory_bytes: int

    @property
    def onebit_memory_bytes(self) -> int:
        """Packed 1-bit capture memory (both states)."""
        return self.report.memory_bytes_peak

    @property
    def memory_saving_vs_12bit(self) -> float:
        """ADC-to-BIST memory ratio (12x for 12-bit words)."""
        return self.adc_memory_bytes_12bit / self.onebit_memory_bytes

    @property
    def streaming_saving_vs_capture(self) -> float:
        """Full-capture to streaming-mode memory ratio."""
        return self.onebit_memory_bytes / self.streaming_memory_bytes


def run_resources(
    bench: Optional[PrototypeTestbench] = None,
    opamp: str = "OP27",
    n_samples: int = 2**18,
    memory_capacity_bytes: int = 512 * 1024,
    clock_hz: float = 100e6,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> ResourcesResult:
    """Measure once through the SoC controller and account resources.

    Each capture the controller asks for is a one-record ``engine.acquire``.
    """
    if bench is None:
        bench = build_prototype_testbench(opamp, n_samples=n_samples)
    engine = engine if engine is not None else MeasurementEngine()
    estimator = bench.make_estimator()
    controller = BISTController(
        estimator,
        SampleMemory(memory_capacity_bytes),
        DSPProcessor(clock_hz=clock_hz),
    )
    outcome = controller.run(
        lambda state, rng: engine.acquire(bench, [state], [rng])[0][0],
        rng=seed,
    )
    from repro.soc.streaming import StreamingWelch

    # Packed accumulator: the reported working set is the real
    # bit-packed staging buffer, not a 1-bit estimate over a float one.
    streaming = StreamingWelch(
        estimator.config.nperseg,
        estimator.config.sample_rate_hz,
        packed=True,
    )
    return ResourcesResult(
        result=outcome.result,
        report=outcome.resources,
        adc_memory_bytes_12bit=controller.adc_alternative_memory_bytes(12),
        adc_memory_bytes_8bit=controller.adc_alternative_memory_bytes(8),
        streaming_memory_bytes=streaming.memory_bytes(),
    )
