"""Table 3: prototype NF for four opamps (expected vs BIST-measured).

The paper measured a non-inverting amplifier (Av=101) built with OP27,
OP07, TL081 and CA3140 at Th=2900 K / Tc=290 K and compared against the
expected values from datasheet noise analysis, observing at most 2 dB of
absolute error.

Two modes (DESIGN.md section 2):

* ``"paper"`` — opamps synthesized so the analytical expected NF matches
  the paper's expected column exactly (3.7 / 6.5 / 10.1 / 16.2 dB); the
  BIST measurement then validates the method the same way the paper does.
* ``"datasheet"`` — the typical-datasheet opamp library; expected values
  differ from the paper (whose circuit-analysis inputs are unpublished)
  but measured must still track expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analog.amplifier import NonInvertingAmplifier
from repro.analog.noise_analysis import noise_budget
from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.constants import T0_KELVIN
from repro.engine import MeasurementEngine
from repro.errors import ConfigurationError, MeasurementError
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs

#: The paper's Table 3 (opamp, expected NF dB, paper-measured NF dB).
PAPER_TABLE3 = (
    ("OP27", 3.7, 3.69),
    ("OP07", 6.5, 4.841),
    ("TL081", 10.1, 9.698),
    ("CA3140", 16.2, 14.02),
)

_MODES = ("paper", "datasheet")


@dataclass(frozen=True)
class Table3Row:
    """One opamp's outcome.

    A row whose estimate raised :class:`~repro.errors.MeasurementError`
    (a Y factor at or below 1 on a short record, say) has NaN measured
    NF and error, and keeps the error's message in ``failure``.
    """

    opamp: str
    expected_nf_db: float
    measured_nf_db: float
    error_db: float
    paper_expected_nf_db: float
    paper_measured_nf_db: float
    failure: Optional[str] = None


@dataclass(frozen=True)
class Table3Result:
    """All four opamps."""

    mode: str
    rows: List[Table3Row]

    @property
    def max_abs_error_db(self) -> float:
        """Maximum |expected - measured| over the rows that measured
        (the paper quotes 2 dB); NaN when none did."""
        return max(
            (abs(r.error_db) for r in self.rows if r.failure is None),
            default=float("nan"),
        )


def _hot_temperature_for(model: OpAmpNoiseModel, rs: float) -> float:
    """Pick a hot temperature that keeps the Y factor usable.

    A fixed ENR source loses resolution on high-NF DUTs: with Te >> Th
    the Y factor collapses toward 1 and estimation noise amplifies (this
    is why the paper's own CA3140 row errs by 2.2 dB).  Standard practice
    (HP app note 57-1) is a higher-ENR source; we target Y >= 1.5.
    """
    amp = NonInvertingAmplifier(model, 10_000.0, 100.0, rs)
    te = (noise_budget(amp, 500.0, 1500.0).noise_factor - 1.0) * T0_KELVIN
    needed = 1.5 * (T0_KELVIN + te) - te
    return max(2900.0, float(np.ceil(needed / 100.0) * 100.0))


def _bench_for(
    name: str,
    paper_expected: float,
    mode: str,
    n_samples: int,
    source_resistance_ohm: float,
):
    if mode == "datasheet":
        model = OPAMP_LIBRARY[name]
        return build_prototype_testbench(
            model,
            source_resistance_ohm=source_resistance_ohm,
            t_hot_k=_hot_temperature_for(model, source_resistance_ohm),
            n_samples=n_samples,
        )
    # "paper" mode: synthesize the device from the published expected NF.
    # Rf || Rg of the Av=101 DUT is ~99 ohm.
    model = OpAmpNoiseModel.from_expected_nf(
        paper_expected,
        source_resistance_ohm=source_resistance_ohm,
        feedback_parallel_ohm=99.0,
        gbw_hz=8e6,
        name=f"{name}(paper-calibrated)",
    )
    return build_prototype_testbench(
        model,
        source_resistance_ohm=source_resistance_ohm,
        n_samples=n_samples,
    )


def run_table3(
    mode: str = "paper",
    n_samples: int = 2**19,
    source_resistance_ohm: float = 600.0,
    noise_band_hz: Tuple[float, float] = (500.0, 1500.0),
    seed: GeneratorLike = 2005,
    engine: Optional[MeasurementEngine] = None,
) -> Table3Result:
    """Regenerate Table 3: measure all four opamps with the 1-bit BIST.

    A store-backed ``engine`` serves the rows it holds from its store.
    A row whose estimate fails is reported as failed (see
    :class:`Table3Row`); the other rows are kept.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"mode must be one of {_MODES}, got {mode!r}")
    engine = engine if engine is not None else MeasurementEngine()
    gen = make_rng(seed)
    rngs = spawn_rngs(gen, len(PAPER_TABLE3))

    rows = []
    for (name, paper_expected, paper_measured), rng in zip(PAPER_TABLE3, rngs):
        bench = _bench_for(
            name, paper_expected, mode, n_samples, source_resistance_ohm
        )
        estimator = bench.make_estimator(noise_band_hz=noise_band_hz)
        expected = bench.expected_nf_db(*noise_band_hz)
        try:
            measured = engine.measure(bench, estimator, rng=rng).noise_figure_db
            failure = None
        except MeasurementError as exc:
            measured, failure = float("nan"), str(exc)
        rows.append(
            Table3Row(
                opamp=name,
                expected_nf_db=expected,
                measured_nf_db=measured,
                error_db=measured - expected,
                paper_expected_nf_db=paper_expected,
                paper_measured_nf_db=paper_measured,
                failure=failure,
            )
        )
    return Table3Result(mode=mode, rows=rows)
