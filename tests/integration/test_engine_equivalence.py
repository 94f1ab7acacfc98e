"""Equivalence suite: batched paths vs the seed's serial loops.

The batched Welch kernel must match a straight per-segment loop (the
seed implementation, replicated here as ``loop_welch``) to <= 1e-10,
and every batched acquisition row must be bit-for-bit identical to its
serial counterpart driven by the same spawned generator.
"""

import numpy as np
import pytest

from repro.core.averaging import RepeatedMeasurement
from repro.dsp.psd import welch, welch_batch
from repro.dsp.windows import get_window
from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import make_rng, spawn_rngs
from repro.signals.sources import GaussianNoiseSource
from repro.soc.streaming import StreamingWelch

FS = 10000.0


def loop_welch(samples, nperseg, fs, window="hann", overlap=0.5, detrend=True):
    """The seed's per-segment Welch loop, kept as the reference."""
    step = max(1, int(round(nperseg * (1.0 - overlap))))
    win = get_window(window, nperseg)
    n_segments = 1 + (samples.size - nperseg) // step
    acc = np.zeros(nperseg // 2 + 1)
    for k in range(n_segments):
        seg = samples[k * step : k * step + nperseg]
        if detrend:
            seg = seg - np.mean(seg)
        spectrum = np.fft.rfft(seg * win)
        psd = (np.abs(spectrum) ** 2) / (fs * np.sum(win**2))
        if nperseg % 2 == 0:
            psd[1:-1] *= 2.0
        else:
            psd[1:] *= 2.0
        acc += psd
    return acc / n_segments


class TestWelchMatchesLoop:
    @pytest.mark.parametrize("nperseg", [256, 251])
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    @pytest.mark.parametrize("detrend", [True, False])
    def test_batched_welch_equals_loop(self, rng, nperseg, overlap, detrend):
        samples = rng.normal(size=10_000)
        spec = welch(
            samples,
            nperseg=nperseg,
            sample_rate=FS,
            overlap=overlap,
            detrend=detrend,
        )
        reference = loop_welch(
            samples, nperseg, FS, overlap=overlap, detrend=detrend
        )
        assert np.allclose(spec.psd, reference, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("window", ["rectangular", "hamming", "blackman"])
    def test_windows_equal_loop(self, rng, window):
        samples = rng.normal(size=8_000)
        spec = welch(samples, nperseg=500, sample_rate=FS, window=window)
        reference = loop_welch(samples, 500, FS, window=window)
        assert np.allclose(spec.psd, reference, rtol=1e-10, atol=0.0)

    def test_block_size_does_not_change_results(self, rng):
        samples = rng.normal(size=50_000)
        base = welch(samples, nperseg=2000, sample_rate=FS, block_segments=1)
        for block in (3, 16, 64, 1000):
            other = welch(
                samples, nperseg=2000, sample_rate=FS, block_segments=block
            )
            assert np.allclose(base.psd, other.psd, rtol=1e-12)

    def test_welch_batch_rows_equal_loop(self, rng):
        records = rng.normal(size=(4, 20_000))
        batch = welch_batch(records, nperseg=1000, sample_rate=FS)
        for i in range(4):
            reference = loop_welch(records[i], 1000, FS)
            assert np.allclose(batch.psd[i], reference, rtol=1e-10, atol=0.0)


class TestStreamingMatchesLoop:
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    @pytest.mark.parametrize("chunk", [643, 5000, 100_000])
    def test_streaming_equals_loop(self, rng, overlap, chunk):
        samples = rng.normal(size=100_000)
        streamer = StreamingWelch(2000, FS, overlap=overlap)
        for start in range(0, samples.size, chunk):
            streamer.push(samples[start : start + chunk])
        reference = loop_welch(samples, 2000, FS, overlap=overlap)
        assert np.allclose(streamer.result().psd, reference, rtol=1e-10, atol=0.0)

    def test_fast_path_tail_then_small_chunks(self, rng):
        samples = rng.normal(size=30_000)
        streamer = StreamingWelch(1000, FS)
        streamer.push(samples[:25_500])  # fast path + odd tail
        for start in range(25_500, samples.size, 137):
            streamer.push(samples[start : start + 137])
        reference = loop_welch(samples, 1000, FS)
        assert np.allclose(streamer.result().psd, reference, rtol=1e-10, atol=0.0)


class TestBatchAcquisitionBitExact:
    def test_testbench_rows_equal_serial(self, stage_chain):
        bench = build_prototype_testbench(n_samples=2**14)
        states = ("hot", "cold", "hot", "cold")
        serial = [
            stage_chain(bench, state, child).samples
            for state, child in zip(states, spawn_rngs(make_rng(21), 4))
        ]
        bits, rate = bench.acquire_bitstreams(
            states, spawn_rngs(make_rng(21), 4)
        )
        assert rate == bench.sample_rate_hz
        rows = bits.unpack()
        for i in range(4):
            assert np.array_equal(rows[i], serial[i])

    def test_matlab_sim_rows_equal_serial(self, stage_chain):
        sim = MatlabSimulation(MatlabSimConfig(n_samples=40_000, nperseg=2000))
        states = ("hot", "cold")
        serial = [
            stage_chain(sim, state, child).samples
            for state, child in zip(states, spawn_rngs(make_rng(8), 2))
        ]
        bits, _ = sim.acquire_bitstreams(states, spawn_rngs(make_rng(8), 2))
        rows = bits.unpack()
        for i in range(2):
            assert np.array_equal(rows[i], serial[i])

    def test_gaussian_render_batch_bit_exact(self):
        source = GaussianNoiseSource(0.7, mean=0.1)
        rngs = spawn_rngs(make_rng(3), 3)
        batch = source.render_batch(5000, FS, rngs)
        for wave, rng2 in zip(batch, spawn_rngs(make_rng(3), 3)):
            assert np.array_equal(
                wave, source.render(5000, FS, rng2).samples
            )

    def test_amplifier_batch_bit_exact(self):
        bench = build_prototype_testbench(n_samples=2**12)
        records = np.random.default_rng(0).normal(size=(3, 2**12))
        batch = bench.dut.process_batch(
            records, bench.sample_rate_hz, spawn_rngs(make_rng(9), 3)
        )
        from repro.signals.waveform import Waveform

        for i, rng2 in enumerate(spawn_rngs(make_rng(9), 3)):
            serial = bench.dut.process(
                Waveform(records[i], bench.sample_rate_hz), rng2
            ).samples
            assert np.array_equal(batch[i], serial)


class TestEngineMatchesSerialMeasurements:
    def test_measure_equals_estimator_measure(self, stage_chain):
        # The engine's two-thread measure equals the estimator run on
        # the scalar stage chain's float records, bit for bit.
        sim = MatlabSimulation(MatlabSimConfig(n_samples=100_000, nperseg=5000))
        est = sim.make_estimator()
        hot, cold = (
            stage_chain(sim, state, child)
            for state, child in zip(("hot", "cold"), spawn_rngs(make_rng(31), 2))
        )
        serial = est.estimate_from_bitstreams(hot, cold)
        batched = MeasurementEngine().measure(sim, est, rng=31)
        assert batched.noise_figure_db == serial.noise_figure_db
        assert batched.y == serial.y

    def test_run_batch_equals_repeated_measurement(self):
        # Repeat i of a batch is the single measurement of child i, and
        # RepeatedMeasurement summarizes exactly those values.
        bench = build_prototype_testbench(n_samples=2**15)
        est = bench.make_estimator()
        engine = MeasurementEngine()
        results = engine.run_batch(bench, est, 3, rng=13)
        singles = [
            engine.measure(bench, est, rng=child)
            for child in spawn_rngs(make_rng(13), 3)
        ]
        averaged = RepeatedMeasurement(est, n_repeats=3).measure(bench, rng=13)
        nfs = [r.noise_figure_db for r in results]
        assert nfs == [r.noise_figure_db for r in singles]
        assert nfs == list(averaged.nf_values_db)
