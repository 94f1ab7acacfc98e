"""Production pass/fail NF screening built on the 1-bit BIST.

The paper's motivation is production test cost (section 1, and the
signature-test framing of its ref [7]).  This module closes that loop: a
specification limit, a guard band derived from the measurement's
uncertainty, and a classifier.  The guard band trades *escapes* (bad
devices passed) against *overkill* (good devices failed): tightening the
accepted region by ``k`` measurement sigmas suppresses escapes at the
cost of yield.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ConfigurationError


class Verdict(Enum):
    """Outcome of a production NF screen."""

    PASS = "pass"
    FAIL = "fail"
    RETEST = "retest"


class ProductionNfScreen:
    """Guard-banded upper-limit NF screen over measured NFs.

    Parameters
    ----------
    limit_db:
        Specification limit (device fails above it).
    measurement_sigma_db:
        One-sigma repeatability of the measurement (from the
        record-length ablation or :mod:`repro.core.uncertainty`).
    guardband_sigmas:
        Guard band in sigmas subtracted from the limit; devices landing
        between the guard-banded and raw limits are marked RETEST.
    """

    def __init__(
        self,
        limit_db: float,
        measurement_sigma_db: float,
        guardband_sigmas: float = 2.0,
    ):
        if limit_db <= 0:
            raise ConfigurationError(f"limit must be > 0 dB, got {limit_db}")
        if measurement_sigma_db < 0:
            raise ConfigurationError(
                f"measurement sigma must be >= 0, got {measurement_sigma_db}"
            )
        if guardband_sigmas < 0:
            raise ConfigurationError(
                f"guardband must be >= 0 sigmas, got {guardband_sigmas}"
            )
        self.limit_db = float(limit_db)
        self.measurement_sigma_db = float(measurement_sigma_db)
        self.guardband_sigmas = float(guardband_sigmas)

    @property
    def guardband_db(self) -> float:
        """Guard band in dB."""
        return self.guardband_sigmas * self.measurement_sigma_db

    def classify(self, measured_nf_db: float) -> Verdict:
        """Apply the guard-banded limit to a measured value."""
        if measured_nf_db <= self.limit_db - self.guardband_db:
            return Verdict.PASS
        if measured_nf_db > self.limit_db:
            return Verdict.FAIL
        return Verdict.RETEST


@dataclass(frozen=True)
class PopulationOutcome:
    """Escape/overkill statistics over a screened device population."""

    n_devices: int
    n_pass: int
    n_fail: int
    n_retest: int
    n_escapes: int
    n_overkill: int

    @property
    def escape_rate(self) -> float:
        """Fraction of out-of-spec devices classified PASS."""
        return self.n_escapes / self.n_devices

    @property
    def overkill_rate(self) -> float:
        """Fraction of in-spec devices classified FAIL."""
        return self.n_overkill / self.n_devices


def screen_population(
    screen: ProductionNfScreen,
    true_nf_values_db,
    measured_nf_values_db,
) -> PopulationOutcome:
    """Classify a population given true and measured NF per device.

    ``true`` decides whether a PASS is an escape (true NF above the
    limit) and whether a FAIL is overkill (true NF within spec).
    """
    true_arr = np.asarray(list(true_nf_values_db), dtype=float)
    meas_arr = np.asarray(list(measured_nf_values_db), dtype=float)
    if true_arr.size != meas_arr.size:
        raise ConfigurationError(
            f"need one measurement per device, got {true_arr.size} true "
            f"and {meas_arr.size} measured"
        )
    if true_arr.size == 0:
        raise ConfigurationError("population must be non-empty")
    n_pass = n_fail = n_retest = n_escapes = n_overkill = 0
    for true_nf, measured in zip(true_arr, meas_arr):
        verdict = screen.classify(float(measured))
        in_spec = true_nf <= screen.limit_db
        if verdict is Verdict.PASS:
            n_pass += 1
            if not in_spec:
                n_escapes += 1
        elif verdict is Verdict.FAIL:
            n_fail += 1
            if in_spec:
                n_overkill += 1
        else:
            n_retest += 1
    return PopulationOutcome(
        n_devices=int(true_arr.size),
        n_pass=n_pass,
        n_fail=n_fail,
        n_retest=n_retest,
        n_escapes=n_escapes,
        n_overkill=n_overkill,
    )
