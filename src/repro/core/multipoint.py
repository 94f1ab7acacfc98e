"""Simultaneous multi-test-point noise-figure measurement.

The paper's abstract motivates the 1-bit digitizer with "simultaneous
evaluation of noise figure in several test points of the analog circuit":
because each digitizer is a single comparator permanently attached to its
test point (no analog multiplexer to the shared ADC), all taps can acquire
during the *same* hot/cold source states.

:class:`MultiPointBIST` coordinates that: one shared reference waveform,
one digitizer per tap, a per-tap estimator (the gain between the source
and each tap differs, but the Y-factor math is gain-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence

from repro.constants import T0_KELVIN
from repro.core.bist import BISTMeasurementConfig, BISTResult, OneBitNoiseFigureBIST
from repro.digitizer.digitizer import OneBitDigitizer
from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.signals.waveform import Waveform


@dataclass(frozen=True)
class TestPoint:
    """A named analog test point with its own permanently-wired digitizer."""

    # Domain term ("analog test point"), not a pytest test class.
    __test__ = False

    name: str
    digitizer: OneBitDigitizer

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("test point needs a non-empty name")
        if not isinstance(self.digitizer, OneBitDigitizer):
            raise ConfigurationError(
                f"digitizer must be a OneBitDigitizer, got "
                f"{type(self.digitizer).__name__}"
            )


class MultiPointBIST:
    """Simultaneous NF measurement at several test points.

    Parameters
    ----------
    test_points:
        The taps, each with its own digitizer.
    config:
        Shared acquisition/analysis configuration (all taps sample the
        same reference and record length).
    t_hot_k / t_cold_k:
        Calibrated noise-source temperatures.
    """

    def __init__(
        self,
        test_points: Sequence[TestPoint],
        config: BISTMeasurementConfig,
        t_hot_k: float,
        t_cold_k: float = T0_KELVIN,
        t0_k: float = T0_KELVIN,
    ):
        points = list(test_points)
        if not points:
            raise ConfigurationError("need at least one test point")
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate test-point names: {names}")
        self.test_points = points
        self.config = config
        self._estimator = OneBitNoiseFigureBIST(config, t_hot_k, t_cold_k, t0_k)

    @property
    def names(self):
        """Test-point names in declaration order."""
        return [p.name for p in self.test_points]

    # ------------------------------------------------------------------
    def _reference_for(self, reference, name: str) -> Waveform:
        if isinstance(reference, Waveform):
            return reference
        if name not in reference:
            raise ConfigurationError(
                f"no reference waveform provided for test point {name!r}"
            )
        return reference[name]

    def digitize_state(
        self,
        signals: Mapping[str, Waveform],
        reference,
        rng: GeneratorLike = None,
    ) -> Dict[str, Waveform]:
        """Digitize one source state at every tap (simultaneously).

        ``signals`` maps tap name to the analog waveform present at that
        tap during the state.  ``reference`` is either a single waveform
        shared by all taps (one on-chip generator) or a mapping of tap
        name to waveform — per-tap amplitude scaling keeps each cell
        inside figure 10's 10-40 % window when tap noise levels differ.
        The reference(s) must be identical across the hot and cold calls;
        only the constancy matters to the normalization.
        """
        missing = [p.name for p in self.test_points if p.name not in signals]
        if missing:
            raise ConfigurationError(f"missing signals for test points: {missing}")
        gen = make_rng(rng)
        rngs = spawn_rngs(gen, len(self.test_points))
        bitstreams = {}
        for point, child in zip(self.test_points, rngs):
            bitstreams[point.name] = point.digitizer.digitize(
                signals[point.name],
                self._reference_for(reference, point.name),
                child,
            )
        return bitstreams

    def estimate(
        self,
        bits_hot: Mapping[str, Waveform],
        bits_cold: Mapping[str, Waveform],
    ) -> Dict[str, BISTResult]:
        """Estimate NF at every tap from its hot/cold bitstream pair."""
        results = {}
        for point in self.test_points:
            if point.name not in bits_hot or point.name not in bits_cold:
                raise ConfigurationError(
                    f"missing bitstreams for test point {point.name!r}"
                )
            results[point.name] = self._estimator.estimate_from_bitstreams(
                bits_hot[point.name], bits_cold[point.name]
            )
        return results

    def measure(
        self,
        acquire_state: Callable[[str, GeneratorLike], Mapping[str, Waveform]],
        reference,
        rng: GeneratorLike = None,
    ) -> Dict[str, BISTResult]:
        """Full two-state, all-taps measurement.

        ``acquire_state(state, rng)`` returns the per-tap analog waveforms
        for the given source state; both states are digitized against the
        same reference (shared waveform or per-tap mapping) and estimated
        per tap.
        """
        gen = make_rng(rng)
        hot_rng, cold_rng, dig_hot, dig_cold = spawn_rngs(gen, 4)
        hot_signals = acquire_state("hot", hot_rng)
        cold_signals = acquire_state("cold", cold_rng)
        bits_hot = self.digitize_state(hot_signals, reference, dig_hot)
        bits_cold = self.digitize_state(cold_signals, reference, dig_cold)
        return self.estimate(bits_hot, bits_cold)
