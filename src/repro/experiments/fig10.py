"""Figure 10: power-ratio estimation error vs reference amplitude.

Sweeps ``Vref / Vnoise`` and records the 1-bit power-ratio error.  The
paper's guidance: very small references are swamped by the noise floor,
very large references drive the limiter nonlinear; 10-40 % of the noise
level is the sweet spot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.engine import MeasurementEngine, MeasurementTask
from repro.engine.scheduler import plan_measurements
from repro.errors import MeasurementError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs

#: Default sweep of reference-to-noise amplitude ratios (in percent the
#: paper's x axis runs 0-70).
DEFAULT_RATIOS = (0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60, 0.70)


@dataclass(frozen=True)
class Fig10Point:
    """One sweep point."""

    reference_ratio: float
    power_ratio: Optional[float]
    error_pct: Optional[float]

    @property
    def failed(self) -> bool:
        """True when the reference line could not be measured."""
        return self.power_ratio is None


@dataclass(frozen=True)
class Fig10Result:
    """The full sweep."""

    points: List[Fig10Point]
    true_power_ratio: float

    def in_window(self, low: float = 0.10, high: float = 0.40) -> List[Fig10Point]:
        """Points inside the paper's recommended 10-40 % window."""
        return [
            p for p in self.points if low <= p.reference_ratio <= high
        ]

    def max_abs_error_in_window_pct(self) -> float:
        """Worst error inside the recommended window."""
        window = [p for p in self.in_window() if not p.failed]
        if not window:
            raise MeasurementError("no successful points inside the window")
        return max(abs(p.error_pct) for p in window)


def run_fig10(
    config: Optional[MatlabSimConfig] = None,
    ratios=DEFAULT_RATIOS,
    n_average: int = 4,
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> Fig10Result:
    """Sweep the reference amplitude and record power-ratio errors.

    Each point averages ``n_average`` independent acquisitions (the
    small-amplitude region has a noisy line estimate); a point is marked
    failed only when every acquisition fails.  A smaller record than
    Table 2's default keeps the sweep fast; pass a custom ``config`` to
    reproduce at full length.  Every ratio shares one analysis
    configuration (the reference amplitude does not enter it), so the
    planner groups the *entire sweep* — all ratios, all averages — as
    a single multi-device batch, with the same per-trial generators as
    the per-ratio batches it replaces.
    """
    # Keep the 60 Hz reference on-bin (df = 2 Hz) for the default sweep;
    # off-bin leakage interacts with the line measurement and would
    # confound the amplitude sweep.
    base = config if config is not None else MatlabSimConfig(
        n_samples=250_000, nperseg=5000
    )
    if n_average < 1:
        raise ValueError(f"n_average must be >= 1, got {n_average}")
    engine = engine if engine is not None else MeasurementEngine()
    ratios = tuple(ratios)
    gen = make_rng(seed)
    rngs = spawn_rngs(gen, len(ratios))

    tasks = []
    for ratio, rng in zip(ratios, rngs):
        sim = MatlabSimulation(replace(base, reference_ratio=ratio))
        estimator = sim.make_estimator()
        # The same trial children run_batch would spawn for this ratio.
        tasks += [
            MeasurementTask(sim, estimator, child)
            for child in spawn_rngs(make_rng(rng), n_average)
        ]
    results = plan_measurements(tasks).run(engine, allow_failures=True)

    points = []
    true_ratio = MatlabSimulation(base).true_power_ratio
    for k, ratio in enumerate(ratios):
        ratio_results = results[k * n_average : (k + 1) * n_average]
        y_values = [r.y for r in ratio_results if r is not None]
        if not y_values:
            points.append(
                Fig10Point(reference_ratio=ratio, power_ratio=None, error_pct=None)
            )
            continue
        y_mean = float(np.mean(y_values))
        error = 100.0 * (y_mean - true_ratio) / true_ratio
        points.append(
            Fig10Point(
                reference_ratio=ratio, power_ratio=y_mean, error_pct=error
            )
        )
    return Fig10Result(points=points, true_power_ratio=true_ratio)
