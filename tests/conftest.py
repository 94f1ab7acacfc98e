"""Shared fixtures for the nfbist test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.signals.waveform import Waveform


@pytest.fixture
def rng():
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def white_noise(rng):
    """A 1 V-RMS white-noise waveform at 10 kHz."""
    return Waveform(rng.normal(0.0, 1.0, size=20000), 10000.0)


@pytest.fixture
def sine_1k(rng):
    """A unit-amplitude 1 kHz sine at 10 kHz sampling."""
    t = np.arange(20000) / 10000.0
    return Waveform(np.sin(2 * np.pi * 1000.0 * t), 10000.0)


def stage_chain_bitstream(source, state, rng):
    """One record through the scalar stage references, as a float
    ``+/-1`` waveform: the serial chain a batch acquisition's row must
    equal in compat mode.

    A :class:`~repro.instruments.testbench.PrototypeTestbench` splits
    ``rng`` into an analog and a digitizer generator and runs
    ``analog_output`` then ``digitizer.digitize``; a
    :class:`~repro.experiments.matlab_sim.MatlabSimulation` runs
    ``render_noise`` then a default ``OneBitDigitizer().digitize`` on
    one generator.
    """
    from repro.digitizer.digitizer import OneBitDigitizer
    from repro.experiments.matlab_sim import MatlabSimulation
    from repro.signals.random import make_rng, spawn_rngs

    gen = make_rng(rng)
    reference = source.reference_waveform()
    if isinstance(source, MatlabSimulation):
        noise = source.render_noise(state, gen)
        return OneBitDigitizer().digitize(noise, reference, gen)
    analog_rng, dig_rng = spawn_rngs(gen, 2)
    analog = source.analog_output(state, analog_rng)
    return source.digitizer.digitize(analog, reference, dig_rng)


@pytest.fixture
def stage_chain():
    """:func:`stage_chain_bitstream`, for tests that need the scalar
    reference chain."""
    return stage_chain_bitstream
