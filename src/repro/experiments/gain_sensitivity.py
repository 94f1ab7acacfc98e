"""Section 4.1 analysis: direct method vs Y-factor under gain drift.

Eq 10 of the paper shows the direct method's NF estimate absorbs any
deviation of the conditioning-amplifier gain; eq 11 shows the Y-factor
ratio cancels it.  This experiment sweeps a gain drift and reports both
the analytic direct-method error and simulated estimates from the
prototype bench for the two methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.constants import linear_to_db
from repro.core.direct import DirectMethod, direct_method_gain_error_db
from repro.core.yfactor import YFactorMethod
from repro.dsp.psd import welch
from repro.engine import MeasurementEngine
from repro.errors import ConfigurationError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.signals.waveform import Waveform

DEFAULT_DRIFTS = (0.80, 0.90, 0.95, 1.00, 1.05, 1.10, 1.20)


@dataclass(frozen=True)
class GainSensitivityPoint:
    """One drift value's outcome."""

    gain_drift: float
    direct_error_analytic_db: float
    direct_error_simulated_db: float
    yfactor_error_simulated_db: float


@dataclass(frozen=True)
class GainSensitivityResult:
    """The full drift sweep."""

    points: List[GainSensitivityPoint]
    expected_nf_db: float

    @property
    def max_yfactor_error_db(self) -> float:
        """Worst Y-factor error over the sweep (should stay small)."""
        return max(abs(p.yfactor_error_simulated_db) for p in self.points)

    @property
    def max_direct_error_db(self) -> float:
        """Worst direct-method error over the sweep (tracks the drift)."""
        return max(abs(p.direct_error_simulated_db) for p in self.points)


def measure_drift_point(task, rng, rng_mode: str = "compat") -> GainSensitivityPoint:
    """Sweep worker: one gain-drift setting, both estimation methods.

    ``task`` is ``(drift, opamp, n_samples, f_low, f_high, expected_nf,
    assumed_gain, n0)`` — the nominal-chain quantities are precomputed
    by the caller (they are deterministic), so the worker only builds
    the drifted bench.  Module-level so the engine's process backend
    can pickle it.  A philox-mode engine forwards ``rng_mode`` (see
    :meth:`~repro.engine.MeasurementEngine.map_sweep`): the two analog
    records are then drawn by spectral synthesis, with the drifted
    post-amplifier gain in their PSD — deterministic per point seed,
    not bit-identical to the compat scalar renders.
    """
    drift, opamp, n_samples, f_low, f_high, expected_nf, assumed_gain, n0 = (
        task
    )
    nperseg = 8192
    bench = build_prototype_testbench(opamp, n_samples=n_samples)
    bench.post_amplifier = bench.post_amplifier.with_gain_drift(drift)
    rng_hot, rng_cold = spawn_rngs(rng, 2)
    if rng_mode == "compat":
        hot = bench.analog_output("hot", rng_hot)
        cold = bench.analog_output("cold", rng_cold)
    else:
        analog, _, _, rate, _ = bench.acquire_analog_batch(
            ["hot", "cold"], [rng_hot, rng_cold], rng_mode=rng_mode
        )
        hot = Waveform(analog[0], rate)
        cold = Waveform(analog[1], rate)
    spec_hot = welch(hot, nperseg=nperseg)
    spec_cold = welch(cold, nperseg=nperseg)
    p_hot = spec_hot.band_power(f_low, f_high)
    p_cold = spec_cold.band_power(f_low, f_high)

    # Direct method: absolute cold-state band power against the
    # *assumed* (nominal) chain gain (a calibrated tester knows the
    # nominal response).
    band = f_high - f_low
    direct = DirectMethod(
        assumed_power_gain=assumed_gain,
        bandwidth_hz=band,
        source_power_n0=n0,
    )
    direct_nf = direct.noise_figure_from_power(p_cold)

    # Y-factor: the ratio cancels the drift.
    yf = YFactorMethod(
        bench.noise_source.t_hot_k, bench.noise_source.t_cold_k
    )
    y_nf = yf.from_powers(p_hot, p_cold).noise_figure_db

    return GainSensitivityPoint(
        gain_drift=drift,
        direct_error_analytic_db=direct_method_gain_error_db(
            10 ** (expected_nf / 10.0), drift**2
        ),
        direct_error_simulated_db=direct_nf - expected_nf,
        yfactor_error_simulated_db=y_nf - expected_nf,
    )


def run_gain_sensitivity(
    drifts=DEFAULT_DRIFTS,
    opamp: str = "OP27",
    n_samples: int = 2**17,
    noise_band_hz: Tuple[float, float] = (500.0, 1500.0),
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> GainSensitivityResult:
    """Sweep post-amplifier gain drift; estimate NF both ways.

    Both methods see the *same* drifted analog chain; the estimators are
    configured with the nominal (assumed) gain, as a production tester
    would be.  The drift points fan out through the engine's
    ``map_sweep`` (in-process by default; a ``backend="process"``
    engine distributes them over its persistent worker pool) with one
    child generator per point, so results are identical across
    backends.
    """
    drifts = tuple(drifts)
    if not drifts:
        raise ConfigurationError("need at least one drift value")
    engine = engine if engine is not None else MeasurementEngine()
    gen = make_rng(seed)
    rngs = spawn_rngs(gen, len(drifts))

    nominal = build_prototype_testbench(opamp, n_samples=n_samples)
    f_low, f_high = noise_band_hz
    expected_nf = nominal.expected_nf_db(f_low, f_high)

    # Nominal-chain quantities the direct method assumes, including the
    # chain's in-band rolloff; deterministic, so computed once here
    # rather than per worker.
    grid = np.linspace(f_low, f_high, 512)
    h2 = (
        nominal._chain_magnitude(nominal.dut, grid)
        * nominal._chain_magnitude(nominal.post_amplifier, grid)
    ) ** 2
    assumed_gain = (
        (nominal.dut.gain * nominal.post_amplifier.gain) ** 2
        * float(np.mean(h2))
    )
    n0 = nominal.dut.source_noise_density(290.0) * (f_high - f_low)

    tasks = [
        (
            float(drift),
            opamp,
            int(n_samples),
            float(f_low),
            float(f_high),
            float(expected_nf),
            float(assumed_gain),
            float(n0),
        )
        for drift in drifts
    ]
    points = engine.map_sweep(measure_drift_point, tasks, rngs=rngs)
    return GainSensitivityResult(points=points, expected_nf_db=expected_nf)
