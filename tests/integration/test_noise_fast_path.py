"""Equivalence suite for the fast noise-synthesis layer.

Pins the two contracts of the noise layer:

(a) ``rng_mode="compat"`` — the default — is **bit-identical** to the
    seed-serial acquisition everywhere the fast layer touched: the
    white-noise sources, the per-record acquisition loops and the
    engine/scheduler end to end.
(b) Analysis does not depend on the mode: a packed record gets the
    same exact packed Welch, bit for bit, in compat and philox mode.

Philox mode has no bit-compatibility claim; its contracts — determinism
per seed and statistical equivalence — are pinned here too.
"""

import numpy as np

from repro.bitstream import PackedBitstream
from repro.digitizer.comparator import Comparator
from repro.digitizer.digitizer import OneBitDigitizer
from repro.digitizer.sampler import SampledLatch
from repro.dsp.psd import welch
from repro.engine import (
    MeasurementEngine,
    MeasurementTask,
    plan_measurements,
)
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import spawn_rngs

SMALL = MatlabSimConfig(n_samples=60_000, nperseg=3_000)


def _mixed_tasks(seed, sims):
    rngs = spawn_rngs(seed, len(sims))
    return [
        MeasurementTask(sim, sim.make_estimator(), rng)
        for sim, rng in zip(sims, rngs)
    ]


# ----------------------------------------------------------------------
# (a) compat bit-identity
# ----------------------------------------------------------------------
class TestCompatBitIdentity:
    def test_packed_acquisition_matches_serial(self, stage_chain):
        sim = MatlabSimulation(SMALL)
        batch, rate = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(2005, 2), rng_mode="compat"
        )
        replay = spawn_rngs(2005, 2)
        for i, state in enumerate(["hot", "cold"]):
            serial = stage_chain(sim, state, replay[i])
            assert np.array_equal(batch[i].unpack(), serial.samples)

    def test_compat_engine_equals_default_engine(self):
        sim = MatlabSimulation(SMALL)
        estimator = sim.make_estimator()
        default = MeasurementEngine().measure(sim, estimator, rng=2005)
        compat = MeasurementEngine(rng_mode="compat").measure(
            sim, estimator, rng=2005
        )
        assert compat.noise_figure_db == default.noise_figure_db
        assert compat.y == default.y

    def test_compat_engine_equals_seed_serial_measure(self, stage_chain):
        sim = MatlabSimulation(SMALL)
        estimator = sim.make_estimator()
        engine_nf = MeasurementEngine(rng_mode="compat").measure(
            sim, estimator, rng=2005
        )
        serial_nf = estimator.estimate_from_bitstreams(
            *(
                stage_chain(sim, state, rng)
                for state, rng in zip(("hot", "cold"), spawn_rngs(2005, 2))
            )
        )
        assert engine_nf.noise_figure_db == serial_nf.noise_figure_db

    def test_testbench_compat_rows_bit_identical(self, stage_chain):
        bench = build_prototype_testbench(n_samples=2**14)
        rngs = spawn_rngs(7, 2)
        records, rate = bench.acquire_bitstreams(
            ["hot", "cold"], rngs, rng_mode="compat"
        )
        replay = spawn_rngs(7, 2)
        for i, state in enumerate(["hot", "cold"]):
            serial = stage_chain(bench, state, replay[i])
            assert np.array_equal(records[i].unpack(), serial.samples)

    def test_scheduler_compat_default_unchanged(self):
        sims = [MatlabSimulation(SMALL) for _ in range(3)]
        default = plan_measurements(_mixed_tasks(11, sims)).run(
            MeasurementEngine()
        )
        compat = plan_measurements(_mixed_tasks(11, sims)).run(
            MeasurementEngine(rng_mode="compat")
        )
        assert [r.noise_figure_db for r in default] == [
            r.noise_figure_db for r in compat
        ]


# ----------------------------------------------------------------------
# (b) one Welch in every rng_mode
# ----------------------------------------------------------------------
def _packed_record(n=100_000, bias=0.48, seed=1):
    rng = np.random.default_rng(seed)
    samples = np.where(rng.random(n) < bias, 1.0, -1.0)
    return samples, PackedBitstream.pack(samples, 10_000.0)


class TestBitDomainWelch:
    """There is no bit-domain Welch: packed records take the exact
    packed Welch whatever the synthesis mode."""

    def test_default_packed_path_still_bit_identical(self):
        samples, packed = _packed_record()
        float_spec = welch(samples, nperseg=8_192, sample_rate=10_000.0)
        packed_spec = welch(packed, nperseg=8_192)
        assert np.array_equal(packed_spec.psd, float_spec.psd)

    def test_philox_engine_spectra_equal_compat(self):
        # nperseg 4096 at 50 % overlap puts every segment on a word
        # boundary, like the production lot's 8192 grid.
        sim = MatlabSimulation(MatlabSimConfig(n_samples=2**16, nperseg=4_096))
        estimator = sim.make_estimator()
        batch, rate = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(5, 2), rng_mode="philox"
        )
        philox = MeasurementEngine(rng_mode="philox").spectra_of(
            batch, rate, estimator
        )
        compat = MeasurementEngine(rng_mode="compat").spectra_of(
            batch, rate, estimator
        )
        assert np.array_equal(philox.psd, compat.psd)


# ----------------------------------------------------------------------
# philox mode contracts
# ----------------------------------------------------------------------
class TestPhiloxMode:
    def test_deterministic_per_seed(self):
        sim = MatlabSimulation(SMALL)
        estimator = sim.make_estimator()
        engine = MeasurementEngine(rng_mode="philox")
        first = engine.measure(sim, estimator, rng=2005)
        second = engine.measure(sim, estimator, rng=2005)
        assert first.noise_figure_db == second.noise_figure_db

    def test_direct_synthesis_statistics_match_compat(self):
        config = MatlabSimConfig(n_samples=400_000, nperseg=10_000)
        sim = MatlabSimulation(config)
        compat, _ = sim.acquire_bitstreams(["hot", "cold"], spawn_rngs(1, 2))
        philox, _ = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(1, 2), rng_mode="philox"
        )
        n = config.n_samples
        for i in range(2):
            frac_compat = np.unpackbits(compat.words[i], count=n).mean()
            frac_philox = np.unpackbits(philox.words[i], count=n).mean()
            # iid bits: fraction-of-ones sigma is ~0.5/sqrt(n) ~ 8e-4
            assert abs(frac_philox - frac_compat) < 5e-3

    def test_comparator_offset_and_noise_fold_in(self):
        # Offset shifts the Bernoulli probability, comparator noise
        # widens sigma — both exactly.  Compare bit fractions against
        # the compat digitizer with the same non-idealities.
        dig = OneBitDigitizer(
            comparator=Comparator(offset_v=0.05, input_noise_rms=0.1)
        )
        config = MatlabSimConfig(n_samples=400_000, nperseg=10_000)
        sim = MatlabSimulation(config)
        compat, _ = sim.acquire_bitstreams(
            ["cold", "cold"], spawn_rngs(3, 2), digitizer=dig
        )
        philox, _ = sim.acquire_bitstreams(
            ["cold", "cold"], spawn_rngs(3, 2), digitizer=dig,
            rng_mode="philox",
        )
        n = config.n_samples
        frac_compat = np.unpackbits(compat.words, axis=-1, count=n).mean()
        frac_philox = np.unpackbits(philox.words, axis=-1, count=n).mean()
        assert frac_compat > 0.55  # the offset visibly biases the bits
        assert abs(frac_philox - frac_compat) < 5e-3

    def test_clock_divider_decimates(self):
        dig = OneBitDigitizer(sampler=SampledLatch(divider=4))
        sim = MatlabSimulation(SMALL)
        batch, rate = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(3, 2), digitizer=dig,
            rng_mode="philox",
        )
        assert batch.n_samples == (SMALL.n_samples + 3) // 4
        assert rate == SMALL.sample_rate_hz / 4

    def test_hysteresis_falls_back_to_noise_fill(self):
        # Outside the Bernoulli model the philox path must still
        # produce valid (digitized) records, via counter-based noise
        # fills plus the regular comparator.
        dig = OneBitDigitizer(comparator=Comparator(hysteresis_v=0.02))
        sim = MatlabSimulation(SMALL)
        batch, _ = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(3, 2), digitizer=dig,
            rng_mode="philox",
        )
        assert batch.n_samples == SMALL.n_samples
        again, _ = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(3, 2), digitizer=dig,
            rng_mode="philox",
        )
        assert np.array_equal(batch.words, again.words)

    def test_nf_statistically_equivalent(self):
        sim = MatlabSimulation(MatlabSimConfig(n_samples=200_000, nperseg=8_000))
        estimator = sim.make_estimator()
        compat_engine = MeasurementEngine()
        philox_engine = MeasurementEngine(rng_mode="philox")
        compat = [
            compat_engine.measure(sim, estimator, rng=seed).noise_figure_db
            for seed in range(5)
        ]
        philox = [
            philox_engine.measure(sim, estimator, rng=seed).noise_figure_db
            for seed in range(5)
        ]
        # Both estimate the same 10 dB DUT; means agree within scatter.
        assert abs(np.mean(compat) - np.mean(philox)) < 0.75

    def test_testbench_philox_chain(self):
        bench = build_prototype_testbench(n_samples=2**14)
        records, rate = bench.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(7, 2), rng_mode="philox"
        )
        assert records.shape == (2, 2**14)
        again, _ = bench.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(7, 2), rng_mode="philox"
        )
        assert np.array_equal(records.words, again.words)

