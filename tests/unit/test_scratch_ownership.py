"""The ``out=`` ownership rule of the analog chain's pooled scratch.

The lot path's renderers draw their large arrays from the thread-local
:data:`repro.buffers.default_pool`.  A function returns pooled memory
only when its caller passed that memory in as ``out=``: called twice
without it, its two results must share no memory, and called with it,
it must fill and return ``out`` with the bits it would have returned.
"""

import numpy as np
import pytest

from repro.instruments.testbench import build_prototype_testbench
from repro.signals.batch_rng import BatchNoiseGenerator
from repro.signals.random import spawn_rngs
from repro.signals.sources import GaussianNoiseSource, ShapedNoiseSource

FS = 32768.0
N = 4096


@pytest.fixture(scope="module")
def bench():
    return build_prototype_testbench(n_samples=N)


def shaped():
    return ShapedNoiseSource.one_over_f(1e-17, 50.0)


def render_fns(bench):
    """Each function that draws on the pool, as ``fn(seed, out)``."""
    psd = bench.analog_psd(["hot", "cold"])
    return {
        "gaussian": lambda seed, out=None: GaussianNoiseSource(
            0.3, mean=0.1
        ).render_batch(N, FS, spawn_rngs(seed, 2), out=out),
        "shaped": lambda seed, out=None: shaped().render_batch(
            N, FS, spawn_rngs(seed, 2), out=out
        ),
        "calibrated": lambda seed, out=None: bench.noise_source.render_batch(
            ["hot", "cold"], N, FS, spawn_rngs(seed, 2), out=out
        ),
        "input_noise": lambda seed, out=None: bench.dut.render_input_noise_batch(
            N, FS, spawn_rngs(seed, 2), out=out
        ),
        "spectral": lambda seed, out=None: BatchNoiseGenerator(
            spawn_rngs(seed, 2)
        ).spectral_matrix(psd, N, FS, out=out),
    }


FNS = ["gaussian", "shaped", "calibrated", "input_noise", "spectral"]


@pytest.mark.parametrize("name", FNS)
def test_results_without_out_are_fresh(bench, name):
    fn = render_fns(bench)[name]
    first, second = fn(1), fn(2)
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("name", FNS)
def test_out_is_filled_and_returned(bench, name):
    # Spectral synthesis writes float32 records, every other renderer
    # float64: ``out`` takes the dtype of the fresh result.
    fn = render_fns(bench)[name]
    expected = fn(3)
    out = np.full((2, N), np.nan, dtype=expected.dtype)
    assert fn(3, out=out) is out
    assert out.tobytes() == expected.tobytes()


def test_shaped_rows_equal_scalar_render():
    rngs = spawn_rngs(4, 3)
    scalar = [shaped().render(N, FS, rng).samples for rng in spawn_rngs(4, 3)]
    batch = shaped().render_batch(N, FS, rngs)
    for row, samples in zip(batch, scalar):
        assert row.tobytes() == samples.tobytes()


@pytest.mark.parametrize("amp", ["dut", "post_amplifier"])
def test_process_batch_results_are_fresh(bench, amp):
    # The post-amplifier filters its records; the DUT's pole sits above
    # Nyquist, so it returns the scaled pooled sum as a new array.
    amplifier = getattr(bench, amp)
    records = np.ones((2, N))
    first = amplifier.process_batch(records, FS, spawn_rngs(5, 2))
    second = amplifier.process_batch(records, FS, spawn_rngs(6, 2))
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)
    assert np.array_equal(records, np.ones((2, N)))


@pytest.mark.parametrize("rng_mode", ["compat", "philox"])
def test_acquire_analog_batch_results_are_fresh(bench, rng_mode):
    first = bench.acquire_analog_batch(
        ["hot", "cold"], spawn_rngs(7, 2), rng_mode=rng_mode
    )[0]
    second = bench.acquire_analog_batch(
        ["hot", "cold"], spawn_rngs(8, 2), rng_mode=rng_mode
    )[0]
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("rng_mode", ["compat", "philox"])
def test_bitstreams_digitize_the_analog_records(bench, rng_mode):
    # acquire_bitstreams synthesizes philox records into pooled scratch;
    # its bits must be those of the fresh records acquire_analog_batch
    # returns.
    analog, reference, dig_rngs, rate, digitizer = bench.acquire_analog_batch(
        ["hot", "cold"], spawn_rngs(9, 2), rng_mode=rng_mode
    )
    expected = digitizer.digitize_batch(analog, reference, rate, dig_rngs)
    for _ in range(2):
        records, _ = bench.acquire_bitstreams(
            ["hot", "cold"], spawn_rngs(9, 2), rng_mode=rng_mode
        )
        for i in range(2):
            assert np.array_equal(records[i].unpack(), expected[i].unpack())
