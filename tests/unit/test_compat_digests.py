"""Frozen compat records: sha256 of the packed words of a hot/cold pair.

The digests were taken from the batch acquisition path and the scalar
stage chain while both existed, and agreed.  They pin every compat
record of both acquirers, so any change to compat synthesis, the
analog chain or the digitizer shows up here.  Packed words, not
floats, are hashed: ULP-level differences in ``sin`` or the FFT across
CPUs can move a float but cannot flip a comparator decision this far
from threshold at these seeds.
"""

import hashlib

import numpy as np
import pytest

from repro import MeasurementEngine
from repro.bitstream import PackedRecordBatch
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.random import spawn_rngs

#: (source factory, seed, sha256 of the (2, n_words) uint8 words).
DIGESTS = {
    "sim_60k": (
        lambda: MatlabSimulation(MatlabSimConfig(n_samples=60_000, nperseg=3000)),
        7,
        "ca57436544dae5daad8b002c4a3fd3d92fcbe809858869fb7b0e949c020c74c0",
    ),
    "sim_250k": (
        lambda: MatlabSimulation(MatlabSimConfig(n_samples=250_000, nperseg=5000)),
        2005,
        "4c16469db0fd71d5a9ed83eff281bcdd44afc52871dd00499ba4ff77126e35a3",
    ),
    "op27_2^14": (
        lambda: build_prototype_testbench("OP27", n_samples=2**14),
        2005,
        "652eab011487c26e18de7ba51f00b0447f8dc6df0f31357ac44c7f99b4cb7faf",
    ),
    "op27_2^17": (
        lambda: build_prototype_testbench("OP27", n_samples=2**17),
        2005,
        "224a0cc8b17e1827e70f639b1f27dcdac9b6962818688e5b3e7b63436175c542",
    ),
}


def _digest(records: PackedRecordBatch) -> str:
    return hashlib.sha256(np.ascontiguousarray(records.words).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_acquire_matches_frozen_digest(name):
    make_source, seed, expected = DIGESTS[name]
    records, _ = MeasurementEngine().acquire(
        make_source(), ["hot", "cold"], spawn_rngs(seed, 2)
    )
    assert _digest(records) == expected


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stage_chain_matches_frozen_digest(name, stage_chain):
    make_source, seed, expected = DIGESTS[name]
    source = make_source()
    waves = [
        stage_chain(source, state, rng)
        for state, rng in zip(["hot", "cold"], spawn_rngs(seed, 2))
    ]
    records = PackedRecordBatch.pack(
        np.stack([w.samples for w in waves]), waves[0].sample_rate
    )
    assert _digest(records) == expected
