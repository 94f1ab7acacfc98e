"""Cycle-cost model of the SoC DSP routines the measurement reuses.

The costs are deliberately simple, architecture-neutral estimates (a
single-MAC DSP): the point is *relative* accounting — how much compute the
1-bit method asks from an SoC, and how a full-ADC alternative compares —
not cycle-exact simulation of any particular core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessorOp:
    """One accounted DSP operation."""

    label: str
    cycles: int


class DSPProcessor:
    """Cycle accounting for the measurement's DSP pipeline.

    Parameters
    ----------
    clock_hz:
        DSP clock, used to convert cycles to execution time.
    cycles_per_mac:
        Cost of one multiply-accumulate.
    cycles_per_butterfly:
        Cost of one radix-2 FFT butterfly (complex MAC + twiddle fetch).
    """

    def __init__(
        self,
        clock_hz: float = 100e6,
        cycles_per_mac: int = 1,
        cycles_per_butterfly: int = 6,
    ):
        if clock_hz <= 0:
            raise ConfigurationError(f"clock must be > 0 Hz, got {clock_hz}")
        if cycles_per_mac < 1 or cycles_per_butterfly < 1:
            raise ConfigurationError("per-op cycle costs must be >= 1")
        self.clock_hz = float(clock_hz)
        self.cycles_per_mac = int(cycles_per_mac)
        self.cycles_per_butterfly = int(cycles_per_butterfly)
        self._ops: List[ProcessorOp] = []

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Cycles consumed so far."""
        return sum(op.cycles for op in self._ops)

    @property
    def execution_time_s(self) -> float:
        """Wall time at the configured clock."""
        return self.total_cycles / self.clock_hz

    def operations(self) -> List[ProcessorOp]:
        """The recorded operation log."""
        return list(self._ops)

    def breakdown(self) -> Dict[str, int]:
        """Cycles aggregated per operation label."""
        out: Dict[str, int] = {}
        for op in self._ops:
            out[op.label] = out.get(op.label, 0) + op.cycles
        return out

    def reset(self) -> None:
        """Clear the accounting log."""
        self._ops.clear()

    def _record(self, label: str, cycles: float) -> int:
        cycles_int = int(np.ceil(cycles))
        self._ops.append(ProcessorOp(label=label, cycles=cycles_int))
        return cycles_int

    # ------------------------------------------------------------------
    # Pipeline-step cost models
    # ------------------------------------------------------------------
    def cost_window(self, n: int, label: str = "window") -> int:
        """Apply an N-point window: one MAC per sample."""
        self._check_n(n)
        return self._record(label, n * self.cycles_per_mac)

    def cost_fft(self, n: int, label: str = "fft") -> int:
        """Radix-2 real FFT: ``(n/2) * log2(n)`` butterflies."""
        self._check_n(n)
        stages = np.log2(n)
        if stages != int(stages):
            # Non power-of-two: charge the next power of two (zero-padded).
            stages = int(np.ceil(stages))
            n_eff = 2**stages
        else:
            stages = int(stages)
            n_eff = n
        butterflies = (n_eff // 2) * stages
        return self._record(label, butterflies * self.cycles_per_butterfly)

    def cost_magnitude_accumulate(self, n_bins: int, label: str = "mag+acc") -> int:
        """|X|^2 and accumulate per bin: two MACs each."""
        self._check_n(n_bins)
        return self._record(label, 2 * n_bins * self.cycles_per_mac)

    def cost_band_power(self, n_bins: int, label: str = "band-power") -> int:
        """Sum a band of bins: one MAC each."""
        self._check_n(n_bins)
        return self._record(label, n_bins * self.cycles_per_mac)

    def cost_welch(
        self,
        n_samples: int,
        nperseg: int,
        overlap: float = 0.5,
        label: str = "welch",
    ) -> int:
        """Full Welch PSD: window + FFT + magnitude per segment."""
        if not 0 <= overlap < 1:
            raise ConfigurationError(f"overlap must be in [0,1), got {overlap}")
        if n_samples < nperseg:
            raise ConfigurationError(
                f"n_samples ({n_samples}) must be >= nperseg ({nperseg})"
            )
        step = max(1, int(round(nperseg * (1 - overlap))))
        n_segments = 1 + (n_samples - nperseg) // step
        total = 0
        for _ in range(n_segments):
            total += self.cost_window(nperseg, label=f"{label}:window")
            total += self.cost_fft(nperseg, label=f"{label}:fft")
            total += self.cost_magnitude_accumulate(
                nperseg // 2 + 1, label=f"{label}:mag"
            )
        return total

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"size must be >= 1, got {n}")
