"""Repeated-measurement averaging for production test flows.

A single two-state acquisition carries a fraction-of-a-dB scatter
dominated by the reference-line estimate (see the record-length
ablation).  Production flows either lengthen the record or repeat the
measurement; this module implements the latter with summary statistics
and a normal-theory confidence interval on the mean NF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.bist import OneBitNoiseFigureBIST
from repro.errors import ConfigurationError, MeasurementError
from repro.signals.random import GeneratorLike


@dataclass(frozen=True)
class AveragedResult:
    """Summary of ``n`` repeated NF measurements."""

    nf_values_db: Tuple[float, ...]
    nf_mean_db: float
    nf_std_db: float
    confidence_halfwidth_db: float
    n_failed: int

    @property
    def n_measurements(self) -> int:
        """Number of successful repeats."""
        return len(self.nf_values_db)

    @property
    def confidence_interval_db(self) -> Tuple[float, float]:
        """~95 % confidence interval on the mean NF."""
        return (
            self.nf_mean_db - self.confidence_halfwidth_db,
            self.nf_mean_db + self.confidence_halfwidth_db,
        )


class RepeatedMeasurement:
    """Run an estimator ``n_repeats`` times and aggregate.

    Parameters
    ----------
    estimator:
        Configured :class:`OneBitNoiseFigureBIST`.
    n_repeats:
        Number of independent two-state acquisitions (>= 2).
    allow_failures:
        When True, repeats whose estimate raises
        :class:`MeasurementError` (e.g. a lost reference line) are
        counted and skipped instead of aborting the flow; at least two
        repeats must still succeed.  An acquisition error aborts the
        batch either way.
    """

    def __init__(
        self,
        estimator: OneBitNoiseFigureBIST,
        n_repeats: int = 4,
        allow_failures: bool = False,
    ):
        if not isinstance(estimator, OneBitNoiseFigureBIST):
            raise ConfigurationError(
                f"estimator must be OneBitNoiseFigureBIST, got "
                f"{type(estimator).__name__}"
            )
        if n_repeats < 2:
            raise ConfigurationError(f"n_repeats must be >= 2, got {n_repeats}")
        self.estimator = estimator
        self.n_repeats = int(n_repeats)
        self.allow_failures = bool(allow_failures)

    def measure(
        self,
        source,
        rng: GeneratorLike = None,
        engine=None,
    ) -> AveragedResult:
        """Run all repeats as one stacked batch through the engine.

        ``source`` is a batch acquirer (e.g. a
        :class:`~repro.instruments.testbench.PrototypeTestbench`);
        ``engine.run_batch`` (default: an in-process compat engine)
        spawns one child generator per repeat, so repeat ``i`` is
        bit-identical to ``engine.measure`` with child ``i``.
        """
        from repro.engine import MeasurementEngine

        eng = engine if engine is not None else MeasurementEngine()
        results = eng.run_batch(
            source,
            self.estimator,
            self.n_repeats,
            rng,
            allow_failures=self.allow_failures,
        )
        values = [r.noise_figure_db for r in results if r is not None]
        n_failed = sum(1 for r in results if r is None)
        return self._summarize(values, n_failed)

    def _summarize(self, values: List[float], n_failed: int) -> AveragedResult:
        if len(values) < 2:
            raise MeasurementError(
                f"only {len(values)} of {self.n_repeats} repeats succeeded; "
                "cannot form statistics"
            )
        arr = np.asarray(values)
        std = float(np.std(arr, ddof=1))
        halfwidth = 1.96 * std / np.sqrt(arr.size)
        return AveragedResult(
            nf_values_db=tuple(float(v) for v in arr),
            nf_mean_db=float(np.mean(arr)),
            nf_std_db=std,
            confidence_halfwidth_db=float(halfwidth),
            n_failed=n_failed,
        )
