"""Table 2: noise power ratio by three methods (Th=10000 K, Tc=1000 K).

The paper compares:

1. ratio of mean-square values (time domain, full analog access);
2. ratio of PSD band powers (full analog access);
3. ratio of PSD band powers from the 1-bit digitizer, reference excluded
   and spectra normalized on the reference line.

and derives F / NF from each ratio via eq 9.  The paper reports about
2.5 % power-ratio error for the 1-bit method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.definitions import f_to_nf, noise_factor_from_y
from repro.dsp.power import mean_square
from repro.dsp.psd import welch
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs


@dataclass(frozen=True)
class Table2Row:
    """One method's outcome."""

    method: str
    power_ratio: float
    noise_factor: float
    nf_db: float
    ratio_error_pct: float


@dataclass(frozen=True)
class Table2Result:
    """All three methods plus the exact reference values."""

    rows: List[Table2Row]
    true_power_ratio: float
    true_nf_db: float

    def row(self, method: str) -> Table2Row:
        """Look up a row by method name."""
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(method)


def _make_row(method: str, y: float, sim: MatlabSimulation) -> Table2Row:
    c = sim.config
    factor = noise_factor_from_y(y, c.t_hot_k, c.t_cold_k, c.t0_k)
    return Table2Row(
        method=method,
        power_ratio=y,
        noise_factor=factor,
        nf_db=f_to_nf(factor),
        ratio_error_pct=100.0 * (y - sim.true_power_ratio) / sim.true_power_ratio,
    )


def run_table2(
    config: Optional[MatlabSimConfig] = None,
    seed: GeneratorLike = 2005,
) -> Table2Result:
    """Regenerate Table 2.

    The same hot/cold noise realizations feed all three methods, exactly
    as the paper's single simulation did.
    """
    sim = MatlabSimulation(config)
    gen = make_rng(seed)
    rng_hot, rng_cold, rng_dig_hot, rng_dig_cold = spawn_rngs(gen, 4)

    noise_hot = sim.render_noise("hot", rng_hot)
    noise_cold = sim.render_noise("cold", rng_cold)
    reference = sim.reference_waveform()

    # Method 1: time-domain mean-square ratio.
    y_ms = mean_square(noise_hot) / mean_square(noise_cold)

    # Method 2: analog PSD band-power ratio.
    c = sim.config
    spec_hot = welch(noise_hot, nperseg=c.nperseg)
    spec_cold = welch(noise_cold, nperseg=c.nperseg)
    f_low, f_high = c.noise_band_hz
    y_psd = spec_hot.band_power(f_low, f_high) / spec_cold.band_power(f_low, f_high)

    # Method 3: 1-bit PSD ratio, reference excluded, spectra normalized.
    from repro.digitizer.digitizer import OneBitDigitizer

    digitizer = OneBitDigitizer()
    bits_hot = digitizer.digitize(noise_hot, reference, rng_dig_hot)
    bits_cold = digitizer.digitize(noise_cold, reference, rng_dig_cold)
    estimator = sim.make_estimator()
    onebit = estimator.estimate_from_bitstreams(bits_hot, bits_cold)

    rows = [
        _make_row("mean_square_ratio", y_ms, sim),
        _make_row("psd_ratio", y_psd, sim),
        _make_row("onebit_psd_ratio_excluding_reference", onebit.y, sim),
    ]
    true_f = noise_factor_from_y(
        sim.true_power_ratio, c.t_hot_k, c.t_cold_k, c.t0_k
    )
    return Table2Result(
        rows=rows,
        true_power_ratio=sim.true_power_ratio,
        true_nf_db=f_to_nf(true_f),
    )
