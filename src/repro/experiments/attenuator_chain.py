"""Figure-4 consistency check: programmable-attenuator hot levels.

The paper's Y-factor setup derives its hot levels from one noise
generator behind a programmable attenuator.  Measuring the *same* DUT at
several attenuator settings must return the same noise figure — each
setting changes Th, and the estimator is told the corresponding
calibrated value.  Any spread across settings exposes calibration-
transfer errors (the practical worry behind section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analog.components import Attenuator
from repro.analog.opamp import OpAmpNoiseModel
from repro.constants import T0_KELVIN
from repro.engine import MeasurementEngine
from repro.errors import ConfigurationError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs

DEFAULT_LOSSES_DB = (0.0, 3.0, 6.0, 10.0)

#: The generator's excess temperature before attenuation (~10000 K total
#: at the 0 dB setting, ENR ~15 dB).  Chosen so a single reference
#: amplitude keeps BOTH states inside figure 10's 10-40 % window across
#: the full attenuation range: the hot/cold RMS span at 0 dB is ~3x and
#: the window spans 4x.
GENERATOR_EXCESS_K = 10000.0 - T0_KELVIN


@dataclass(frozen=True)
class AttenuatorRow:
    """Measurement at one attenuator setting."""

    loss_db: float
    t_hot_k: float
    enr_db: float
    measured_nf_db: float
    error_db: float


@dataclass(frozen=True)
class AttenuatorChainResult:
    """NF consistency across attenuator settings."""

    expected_nf_db: float
    rows: List[AttenuatorRow]

    @property
    def spread_db(self) -> float:
        """Max minus min measured NF across settings."""
        values = [r.measured_nf_db for r in self.rows]
        return max(values) - min(values)

    @property
    def max_abs_error_db(self) -> float:
        """Worst deviation from the analytical expectation."""
        return max(abs(r.error_db) for r in self.rows)


def run_attenuator_chain(
    losses_db: Sequence[float] = DEFAULT_LOSSES_DB,
    target_nf_db: float = 6.0,
    n_samples: int = 2**18,
    seed: GeneratorLike = 2005,
) -> AttenuatorChainResult:
    """Measure one DUT at several attenuator settings.

    Each setting scales the generator's excess temperature by the
    attenuator's power factor (ambient passes unchanged for a matched
    pad at ambient temperature); the estimator is calibrated with the
    resulting hot temperature.
    """
    losses = [float(x) for x in losses_db]
    if not losses:
        raise ConfigurationError("need at least one attenuator setting")
    engine = MeasurementEngine()
    model = OpAmpNoiseModel.from_expected_nf(
        target_nf_db, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
        name=f"attchain_nf{target_nf_db:g}",
    )
    gen = make_rng(seed)
    rngs = spawn_rngs(gen, len(losses))

    rows = []
    expected = None
    for loss_db, rng in zip(losses, rngs):
        attenuator = Attenuator(loss_db)
        t_excess = attenuator.attenuate_temperature(GENERATOR_EXCESS_K)
        t_hot = T0_KELVIN + t_excess
        bench = build_prototype_testbench(
            model, t_hot_k=t_hot, n_samples=n_samples, reference_ratio=0.35
        )
        if expected is None:
            expected = bench.expected_nf_db(500.0, 1500.0)
        estimator = bench.make_estimator()
        result = engine.measure(bench, estimator, rng=rng)
        rows.append(
            AttenuatorRow(
                loss_db=loss_db,
                t_hot_k=t_hot,
                enr_db=10 * np.log10(t_excess / T0_KELVIN),
                measured_nf_db=result.noise_figure_db,
                error_db=result.noise_figure_db - expected,
            )
        )
    return AttenuatorChainResult(expected_nf_db=expected, rows=rows)
