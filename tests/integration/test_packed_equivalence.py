"""Packed-pipeline equivalence: every packed path matches the float path.

The acceptance bar of the packed-record refactor: PSDs computed from
packed records must match the float64 paths to <= 1e-10 for ``welch``,
``welch_batch``, ``StreamingWelch`` and both engine backends (serial
and process), batch acquisitions must unpack to the serial float
records bit for bit, and the multi-device production batch must
reproduce the per-device sweep exactly.
"""

import numpy as np
import pytest

from repro.bitstream import PackedBitstream, PackedRecordBatch
from repro.digitizer.comparator import Comparator
from repro.digitizer.digitizer import OneBitDigitizer
from repro.digitizer.sampler import SampledLatch
from repro.dsp.psd import welch, welch_batch
from repro.engine import MeasurementEngine
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.experiments.production import _draw_lot, _lot_tasks, run_production
from repro.signals.random import make_rng, spawn_rngs
from repro.signals.waveform import Waveform
from repro.soc.streaming import StreamingWelch

FS = 10000.0
TOL = 1e-10


def random_bitstream(rng, n):
    return np.where(rng.random(n) > 0.5, 1.0, -1.0)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def serial_records(stage_chain, sim, states, seed):
    """The serial float reference: one scalar stage chain per record."""
    rngs = spawn_rngs(make_rng(seed), len(states))
    return np.vstack(
        [
            stage_chain(sim, state, rng).samples
            for state, rng in zip(states, rngs)
        ]
    )


class TestWelchEquivalence:
    @pytest.mark.parametrize(
        "n,nperseg,overlap,detrend",
        [
            (100003, 1000, 0.5, True),
            (50000, 999, 0.0, False),
            (20000, 1024, 0.5, False),
            (30001, 500, 0.0, True),
        ],
    )
    def test_welch_packed_matches_float(self, rng, n, nperseg, overlap, detrend):
        x = random_bitstream(rng, n)
        float_psd = welch(
            x, nperseg, sample_rate=FS, overlap=overlap, detrend=detrend
        ).psd
        packed_psd = welch(
            PackedBitstream.pack(x, FS),
            nperseg,
            overlap=overlap,
            detrend=detrend,
        ).psd
        assert rel_diff(packed_psd, float_psd) <= TOL

    @pytest.mark.parametrize("block_segments", [1, 3, 16, 64])
    def test_block_size_irrelevant(self, rng, block_segments):
        x = random_bitstream(rng, 40000)
        reference = welch(x, 2000, sample_rate=FS).psd
        packed = welch(
            PackedBitstream.pack(x, FS), 2000, block_segments=block_segments
        ).psd
        assert rel_diff(packed, reference) <= TOL

    def test_welch_batch_packed_matches_float(self, rng):
        records = np.where(rng.random((6, 30000)) > 0.5, 1.0, -1.0)
        float_batch = welch_batch(records, 1500, sample_rate=FS)
        packed_batch = welch_batch(PackedRecordBatch.pack(records, FS), 1500)
        assert rel_diff(packed_batch.psd, float_batch.psd) <= TOL
        assert np.array_equal(packed_batch.frequencies, float_batch.frequencies)

    def test_welch_batch_rate_mismatch_rejected(self, rng):
        records = PackedRecordBatch.pack(
            np.where(rng.random((2, 5000)) > 0.5, 1.0, -1.0), FS
        )
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            welch_batch(records, 1000, sample_rate=FS / 2)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    @pytest.mark.parametrize("chunk", [997, 2000, 100000])
    def test_packed_streaming_matches_float_and_batch(self, rng, overlap, chunk):
        x = random_bitstream(rng, 100000)
        batch_psd = welch(x, 2000, sample_rate=FS, overlap=overlap).psd
        packed_streamer = StreamingWelch(2000, FS, overlap=overlap, packed=True)
        float_streamer = StreamingWelch(2000, FS, overlap=overlap)
        for lo in range(0, x.size, chunk):
            piece = x[lo : lo + chunk]
            packed_streamer.push(PackedBitstream.pack(piece, FS))
            float_streamer.push(piece)
        packed_psd = packed_streamer.result().psd
        assert rel_diff(packed_psd, batch_psd) <= TOL
        assert rel_diff(packed_psd, float_streamer.result().psd) <= TOL

    def test_packed_streamer_accepts_waveform_chunks(self, rng):
        x = random_bitstream(rng, 20000)
        streamer = StreamingWelch(1000, FS, packed=True)
        streamer.push(Waveform(x, FS))
        reference = welch(x, 1000, sample_rate=FS).psd
        assert rel_diff(streamer.result().psd, reference) <= TOL

    def test_packed_streamer_rejects_analog_chunks(self, rng):
        from repro.errors import ConfigurationError

        streamer = StreamingWelch(1000, FS, packed=True)
        with pytest.raises(ConfigurationError):
            streamer.push(rng.normal(0.0, 1.0, 500))

    def test_float_streamer_unpacks_packed_chunks(self, rng):
        x = random_bitstream(rng, 20000)
        streamer = StreamingWelch(1000, FS)
        streamer.push(PackedBitstream.pack(x, FS))
        reference = welch(x, 1000, sample_rate=FS).psd
        assert rel_diff(streamer.result().psd, reference) <= TOL


class TestDigitizerPackedEquivalence:
    @pytest.mark.parametrize(
        "digitizer",
        [
            OneBitDigitizer(),
            OneBitDigitizer(Comparator(offset_v=0.02, input_noise_rms=0.05)),
            OneBitDigitizer(Comparator(hysteresis_v=0.1)),
            OneBitDigitizer(sampler=SampledLatch(divider=4)),
            OneBitDigitizer(
                sampler=SampledLatch(divider=3, jitter_rms_samples=0.6)
            ),
        ],
    )
    def test_packed_digitize_bit_exact(self, rng, digitizer):
        n = 8001
        reference = Waveform(
            0.2 * np.sign(np.sin(0.01 * np.arange(n)) + 0.5), FS
        )
        signals = rng.normal(0.0, 1.0, (3, n))
        packed_batch = digitizer.digitize_batch(
            signals, reference.samples, FS, rngs=[1, 2, 3]
        )
        rows = packed_batch.unpack()
        for i in range(3):
            scalar = digitizer.digitize(
                Waveform(signals[i], FS), reference, rng=i + 1
            )
            assert np.array_equal(rows[i], scalar.samples)
            assert packed_batch.sample_rate == scalar.sample_rate

    def test_per_record_reference_rows_match_scalar(self, rng):
        # The 2-D reference form: row i digitized against its own
        # reference, equal to the scalar path.
        digitizer = OneBitDigitizer()
        n = 3001
        signals = rng.normal(0.0, 1.0, (3, n))
        references = np.vstack(
            [amp * np.sign(np.sin(0.01 * np.arange(n)) + 0.3)
             for amp in (0.1, 0.2, 0.4)]
        )
        rows = digitizer.digitize_batch(
            signals, references, FS, rngs=[1, 2, 3]
        ).unpack()
        for i in range(3):
            scalar = digitizer.digitize(
                Waveform(signals[i], FS), Waveform(references[i], FS), rng=i + 1
            )
            assert np.array_equal(rows[i], scalar.samples)

    def test_packed_compare_batch_requires_sample_rate(self, rng):
        from repro.errors import ConfigurationError

        comparator = Comparator()
        signals = rng.normal(size=(2, 64))
        with pytest.raises(TypeError):
            comparator.compare_batch(signals, np.zeros(64))
        with pytest.raises(ConfigurationError):
            comparator.compare_batch(signals, np.zeros(64), sample_rate=0.0)


class TestEngineBackendsEquivalence:
    @pytest.fixture
    def sim(self):
        return MatlabSimulation(MatlabSimConfig(n_samples=50000, nperseg=2000))

    def test_serial_engine_packed_matches_float(self, sim, stage_chain):
        estimator = sim.make_estimator()
        states = ["hot", "cold", "hot", "cold"]
        packed_records, rate = sim.acquire_bitstreams(
            states, spawn_rngs(make_rng(31), 4)
        )
        float_records = serial_records(stage_chain, sim, states, 31)
        assert isinstance(packed_records, PackedRecordBatch)
        assert np.array_equal(packed_records.unpack(), float_records)
        engine = MeasurementEngine()
        packed_psd = engine.spectra_of(packed_records, rate, estimator)
        float_psd = engine.spectra_of(float_records, rate, estimator)
        assert rel_diff(packed_psd.psd, float_psd.psd) <= TOL

    def test_process_engine_packed_matches_float(self, sim, stage_chain):
        estimator = sim.make_estimator()
        states = ["hot", "cold", "hot", "cold"]
        packed_records, rate = sim.acquire_bitstreams(
            states, spawn_rngs(make_rng(77), 4)
        )
        float_records = serial_records(stage_chain, sim, states, 77)
        with MeasurementEngine(backend="process", max_workers=2) as process_engine:
            process_psd = process_engine.spectra_of(
                packed_records, rate, estimator
            )
        float_psd = MeasurementEngine().spectra_of(
            float_records, rate, estimator
        )
        assert rel_diff(process_psd.psd, float_psd.psd) <= TOL

    def test_run_batch_identical_across_backends_and_packing(
        self, sim, stage_chain
    ):
        # The serial reference: the estimator on one scalar stage-chain
        # pair per repeat child.
        estimator = sim.make_estimator()
        reference = []
        for child in spawn_rngs(make_rng(7), 3):
            hot, cold = (
                stage_chain(sim, state, rng)
                for state, rng in zip(("hot", "cold"), spawn_rngs(child, 2))
            )
            reference.append(
                estimator.estimate_from_bitstreams(hot, cold).noise_figure_db
            )
        runs = {}
        for backend in ("serial", "process"):
            with MeasurementEngine(backend=backend, max_workers=2) as engine:
                runs[backend] = [
                    r.noise_figure_db
                    for r in engine.run_batch(sim, estimator, 3, rng=7)
                ]
            assert max(
                abs(a - b) for a, b in zip(runs[backend], reference)
            ) <= 1e-9
        # Two workers measure the repeats in chunks of 2 and 1, bit for
        # bit like one in-process batch.
        assert runs["process"] == runs["serial"]

    def test_process_spectra_rate_mismatch_rejected(self, sim):
        from repro.errors import ConfigurationError

        estimator = sim.make_estimator()
        records, rate = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(make_rng(5), 2)
        )
        with MeasurementEngine(backend="process", max_workers=2) as engine:
            with pytest.raises(ConfigurationError):
                engine.spectra_of(records, rate / 2.0, estimator)

    def test_packed_records_are_64x_smaller(self, sim, stage_chain):
        packed_records, _ = sim.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(make_rng(5), 2)
        )
        float_records = serial_records(stage_chain, sim, ["hot", "cold"], 5)
        assert float_records.nbytes / packed_records.nbytes == 64.0


class TestMultiDeviceEquivalence:
    def test_measure_devices_matches_per_device(self):
        from dataclasses import replace

        base = MatlabSimConfig(n_samples=40000, nperseg=2000)
        sims = [
            MatlabSimulation(replace(base, dut_nf_db=nf))
            for nf in (6.0, 10.0, 14.0)
        ]
        estimators = [sim.make_estimator() for sim in sims]
        engine = MeasurementEngine()
        batched = engine.measure_devices(sims, estimators, rng=99)
        rngs = spawn_rngs(make_rng(99), len(sims))
        individual = [
            engine.measure(sim, est, rng=rng)
            for sim, est, rng in zip(sims, estimators, rngs)
        ]
        for a, b in zip(batched, individual):
            assert abs(a.noise_figure_db - b.noise_figure_db) <= 1e-9
            assert abs(a.y - b.y) <= 1e-12

    def test_estimator_config_mismatch_rejected(self):
        from repro.errors import ConfigurationError

        sims = [
            MatlabSimulation(MatlabSimConfig(n_samples=40000, nperseg=n))
            for n in (2000, 1000)
        ]
        estimators = [sim.make_estimator() for sim in sims]
        with pytest.raises(ConfigurationError):
            MeasurementEngine().measure_devices(sims, estimators, rng=1)


class TestProductionSingleBatch:
    def test_batch_screen_identical_to_sweep(self):
        # The one-batch screen against one engine.measure per device.
        batch = run_production(n_devices=5, n_samples=2**14, seed=2005)
        true_values, device_rngs = _draw_lot(8.0, 1.5, 5, 2005)
        tasks = _lot_tasks(true_values, [2**14] * 5, [8192] * 5, device_rngs)
        engine = MeasurementEngine()
        per_device = [
            engine.measure(t.source, t.estimator, rng=t.rng).noise_figure_db
            for t in tasks
        ]
        assert batch.true_nf_db == [float(v) for v in true_values]
        assert batch.measured_nf_db == per_device
