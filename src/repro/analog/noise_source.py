"""Calibrated hot/cold noise source for the Y-factor method (figure 4).

Physically this models the chain *noise generator -> programmable
attenuator -> source resistor*: with the generator off the source delivers
plain Johnson noise at the cold temperature (290 K in the prototype); with
the generator on, the total source noise corresponds to a known hot
equivalent temperature (2900 K in Table 3, 10000 K in Table 2).

The optional ``hot_level_error`` models the calibration uncertainty
analyzed in the paper's reference [6] (a 5 % hot-temperature error keeps
NF within about +/-0.3 dB for 3-10 dB devices) — see
:mod:`repro.core.uncertainty`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import BOLTZMANN, T0_KELVIN
from repro.errors import ConfigurationError
from repro.signals.batch_rng import white_noise_matrix
from repro.signals.random import GeneratorLike
from repro.signals.sources import GaussianNoiseSource
from repro.signals.thermal import temperature_from_enr_db
from repro.signals.waveform import Waveform

_VALID_STATES = ("hot", "cold")


class CalibratedNoiseSource:
    """Two-state (hot/cold) Gaussian noise source with known temperatures.

    Parameters
    ----------
    source_resistance_ohm:
        The source resistance whose Johnson noise carries the calibrated
        temperature.
    t_hot_k / t_cold_k:
        Equivalent noise temperatures of the two states.
    hot_level_error:
        Relative error of the *actual* hot temperature versus the
        calibrated value (e.g. ``0.05`` renders hot noise 5 % hotter than
        the temperature reported to the estimator).
    """

    def __init__(
        self,
        source_resistance_ohm: float,
        t_hot_k: float,
        t_cold_k: float = T0_KELVIN,
        hot_level_error: float = 0.0,
        name: str = "noise_source",
    ):
        if source_resistance_ohm <= 0:
            raise ConfigurationError(
                f"source resistance must be > 0, got {source_resistance_ohm}"
            )
        if t_cold_k < 0:
            raise ConfigurationError(f"cold temperature must be >= 0 K, got {t_cold_k}")
        if t_hot_k <= t_cold_k:
            raise ConfigurationError(
                f"hot temperature ({t_hot_k} K) must exceed cold ({t_cold_k} K)"
            )
        if hot_level_error <= -1.0:
            raise ConfigurationError(
                f"hot_level_error must be > -1, got {hot_level_error}"
            )
        self.source_resistance_ohm = float(source_resistance_ohm)
        self.t_hot_k = float(t_hot_k)
        self.t_cold_k = float(t_cold_k)
        self.hot_level_error = float(hot_level_error)
        self.name = name

    # ------------------------------------------------------------------
    @classmethod
    def from_enr_db(
        cls,
        source_resistance_ohm: float,
        enr_db: float,
        t_cold_k: float = T0_KELVIN,
        hot_level_error: float = 0.0,
    ) -> "CalibratedNoiseSource":
        """Build from an excess-noise-ratio calibration figure."""
        return cls(
            source_resistance_ohm,
            temperature_from_enr_db(enr_db),
            t_cold_k,
            hot_level_error,
        )

    # ------------------------------------------------------------------
    def calibrated_temperature(self, state: str) -> float:
        """The temperature the estimator is *told* (calibration value)."""
        self._check_state(state)
        return self.t_hot_k if state == "hot" else self.t_cold_k

    def actual_temperature(self, state: str) -> float:
        """The temperature actually rendered (includes hot-level error)."""
        self._check_state(state)
        if state == "hot":
            return self.t_hot_k * (1.0 + self.hot_level_error)
        return self.t_cold_k

    def density(self, state: str) -> float:
        """Actual one-sided source noise density ``4kT*Rs`` in V^2/Hz."""
        return (
            4.0
            * BOLTZMANN
            * self.actual_temperature(state)
            * self.source_resistance_ohm
        )

    def render(
        self,
        state: str,
        n_samples: int,
        sample_rate: float,
        rng: GeneratorLike = None,
    ) -> Waveform:
        """Render the source noise waveform for one state."""
        source = GaussianNoiseSource.from_density(self.density(state), sample_rate)
        return source.render(n_samples, sample_rate, rng)

    def render_batch(
        self,
        states,
        n_samples: int,
        sample_rate: float,
        rngs,
        out=None,
    ) -> np.ndarray:
        """Render one record per ``(state, rng)`` pair as a stacked array.

        ``states`` and ``rngs`` are equal-length sequences; row ``i`` is
        bit-exact equal to ``render(states[i], ..., rngs[i])`` so a
        hot/cold pair (or a whole repeat batch) can be generated in one
        call without losing per-record reproducibility.  The records
        are drawn into ``out`` when given (float64, one row per pair),
        which is returned; otherwise into a fresh array.
        """
        states = list(states)
        rngs = list(rngs)
        if len(states) != len(rngs):
            raise ConfigurationError(
                f"got {len(states)} states but {len(rngs)} generators"
            )
        sources = {
            state: GaussianNoiseSource.from_density(
                self.density(state), sample_rate
            )
            for state in set(states)
        }
        rms_rows = np.array([sources[state].rms for state in states])
        return white_noise_matrix(rngs, n_samples, scale=rms_rows, out=out)

    @property
    def y_factor_true(self) -> float:
        """Source-only power ratio ``Th/Tc`` (before any DUT noise)."""
        return self.t_hot_k / self.t_cold_k

    @staticmethod
    def _check_state(state: str) -> None:
        if state not in _VALID_STATES:
            raise ConfigurationError(
                f"state must be one of {_VALID_STATES}, got {state!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CalibratedNoiseSource(Rs={self.source_resistance_ohm:g} ohm, "
            f"Th={self.t_hot_k:g} K, Tc={self.t_cold_k:g} K)"
        )
