"""Figure 7: noise + reference waveforms for hot and cold temperatures.

The figure shows the two digitizer input pairs; the reproducible content
is the waveform statistics (noise RMS per state, constant reference
amplitude, hot/cold RMS ratio) plus a short segment of each composite
waveform for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs


@dataclass(frozen=True)
class Fig7State:
    """Statistics of one state's digitizer input."""

    state: str
    noise_rms: float
    noise_rms_expected: float
    reference_amplitude: float
    composite_rms: float
    crest_factor: float
    segment: np.ndarray


@dataclass(frozen=True)
class Fig7Result:
    """Both states plus the constancy checks the method relies on."""

    hot: Fig7State
    cold: Fig7State
    segment_sample_rate_hz: float

    @property
    def rms_ratio_squared(self) -> float:
        """Measured hot/cold noise power ratio (should be ~3.49)."""
        return (self.hot.noise_rms / self.cold.noise_rms) ** 2

    @property
    def reference_is_constant(self) -> bool:
        """The reference amplitude must not change between states."""
        return self.hot.reference_amplitude == self.cold.reference_amplitude


def run_fig7(
    config: Optional[MatlabSimConfig] = None,
    segment_samples: int = 500,
    seed: GeneratorLike = 2005,
) -> Fig7Result:
    """Regenerate the figure-7 waveforms and their statistics."""
    sim = MatlabSimulation(config)
    gen = make_rng(seed)
    rng_hot, rng_cold = spawn_rngs(gen, 2)
    reference = sim.reference_waveform()

    states = {}
    for state, rng in (("hot", rng_hot), ("cold", rng_cold)):
        noise = sim.render_noise(state, rng)
        composite = noise - reference
        n_seg = min(segment_samples, composite.n_samples)
        states[state] = Fig7State(
            state=state,
            noise_rms=noise.rms(),
            noise_rms_expected=sim.noise_rms(state),
            reference_amplitude=sim.reference_amplitude_v,
            composite_rms=composite.rms(),
            crest_factor=composite.crest_factor(),
            segment=composite.samples[:n_seg].copy(),
        )
    return Fig7Result(
        hot=states["hot"],
        cold=states["cold"],
        segment_sample_rate_hz=sim.config.sample_rate_hz,
    )
