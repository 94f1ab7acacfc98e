"""Statistical equivalence of the philox spectral synthesis of the
analog chain against an independently built PSD and against compat.

Two benches cover both filter branches: the production device bench
(DUT pole above Nyquist, so only the post-amplifier pole is applied)
and the OP07 prototype (both poles below Nyquist).  Every test is
seeded; the false-alarm rates below are the chance that a correct
implementation fails at an arbitrary seed.
"""

import numpy as np
import pytest
from scipy import signal, stats

from repro.constants import BOLTZMANN
from repro.engine import MeasurementEngine
from repro.experiments.production import _build_device_bench, _draw_lot
from repro.instruments.testbench import build_prototype_testbench
from repro.signals.batch_rng import BatchNoiseGenerator
from repro.signals.filters import single_pole_magnitude
from repro.signals.random import spawn_rngs

N_SAMPLES = 2**14
N_RECORDS = 32
#: Band edges in rfft bins (2 Hz each at 2**14 samples and 32768 Hz):
#: eight bands from the lowest bin up to the last bin below Nyquist.
BAND_EDGES = (1, 8, 32, 128, 512, 1024, 2048, 4096, N_SAMPLES // 2)
Z_LIMIT = 5.0

BENCHES = {
    "device": lambda: _build_device_bench(8.0, N_SAMPLES),
    "OP07": lambda: build_prototype_testbench("OP07", n_samples=N_SAMPLES),
}


def _filter_power(amplifier, freqs, fs, magnitude=False):
    """|H|^2 of the pole the time path applies, via ``freqz`` of the
    ``lfilter`` coefficients (or, with ``magnitude``, the analog
    single-pole response — the wrong model the power test injects)."""
    pole = amplifier.bandwidth_hz
    if pole >= fs / 2.0:
        return np.ones_like(freqs)
    if magnitude:
        return single_pole_magnitude(freqs, pole) ** 2
    b, a = signal.bilinear([1.0], [1.0 / (2.0 * np.pi * pole), 1.0], fs=fs)
    _, h = signal.freqz(b, a, worN=freqs, fs=fs)
    return np.abs(h) ** 2


def _expected_psd(bench, state, magnitude=False):
    """The chain's one-sided output PSD, built from the public density
    methods: source density and amplifier noise through each stage's
    gain and pole; the DC bin carries only the white terms."""
    fs = bench.sample_rate_hz
    freqs = np.fft.rfftfreq(bench.n_samples, d=1.0 / fs)

    def noise(amplifier):
        density = amplifier.amplifier_noise_density(freqs)
        density[0] = (
            4.0 * BOLTZMANN * amplifier.temperature_k
            * amplifier.feedback_parallel_ohm
        )
        return density

    dut, post = bench.dut, bench.post_amplifier
    at_post_input = (
        dut.actual_gain**2
        * _filter_power(dut, freqs, fs, magnitude)
        * (bench.noise_source.density(state) + noise(dut))
    )
    return (
        post.actual_gain**2
        * _filter_power(post, freqs, fs, magnitude)
        * (at_post_input + noise(post))
    )


def _mean_periodogram(records, fs):
    spectrum = np.fft.rfft(records, axis=-1)
    return (np.abs(spectrum) ** 2).mean(axis=0) * (2.0 / (records.shape[-1] * fs))


def _band_ratios(periodogram, expected):
    """Per band, the band mean of the periodogram over the band mean of
    the expected PSD, and its standard error.  Each bin of the mean
    periodogram is a mean of ``N_RECORDS`` exponentials of mean
    ``S_k``, so the SE is ``sqrt(sum S_k^2) / sum S_k / sqrt(records)``
    — ``1 / sqrt(bins * records)`` for a flat band.  Band power, not
    per-bin ratios: the compat filters start from zero state, and the
    start-up transient's flat spectrum swamps single bins next to
    Nyquist, where the bilinear response vanishes."""
    means, errors = [], []
    for lo, hi in zip(BAND_EDGES[:-1], BAND_EDGES[1:]):
        band = expected[lo:hi]
        means.append(periodogram[lo:hi].sum() / band.sum())
        errors.append(np.sqrt((band**2).sum() / N_RECORDS) / band.sum())
    return np.array(means), np.array(errors)


def _periodogram_of(bench, state, seed, rng_mode="philox"):
    """Mean periodogram of ``N_RECORDS`` analog records of one state."""
    analog = bench.acquire_analog_batch(
        [state] * N_RECORDS, spawn_rngs(seed, N_RECORDS), rng_mode=rng_mode
    )[0]
    return _mean_periodogram(analog, bench.sample_rate_hz)


def _z_scores(periodogram, reference, expected):
    """Band z-scores of ``periodogram`` against the expected PSD and,
    when ``reference`` (compat) is given, against it (two-sample SE)."""
    means, se = _band_ratios(periodogram, expected)
    z_expected = (means - 1.0) / se
    if reference is None:
        return z_expected, None
    ref_means, ref_se = _band_ratios(reference, expected)
    z_reference = (means - ref_means) / np.hypot(se, ref_se)
    return z_expected, z_reference


@pytest.fixture(scope="module", params=sorted(BENCHES))
def bench_case(request):
    """A bench plus its compat reference periodograms, per state."""
    bench = BENCHES[request.param]()
    compat = {
        state: _periodogram_of(bench, state, seed, rng_mode="compat")
        for state, seed in (("hot", 101), ("cold", 102))
    }
    return request.param, compat


class TestSpectralPsd:
    def test_expected_psd_matches_synthesis_psd(self, bench_case):
        name, _ = bench_case
        drifted = BENCHES[name]()
        drifted.dut = drifted.dut.with_gain_drift(1.2)
        drifted.post_amplifier = drifted.post_amplifier.with_gain_drift(0.9)
        for bench in (BENCHES[name](), drifted):
            psds = bench.analog_psd(["hot", "cold"])
            for state, psd in zip(("hot", "cold"), psds):
                expected = _expected_psd(bench, state)
                assert np.max(np.abs(psd - expected)) <= 1e-12 * expected.max()

    def test_band_power_matches_expected_and_compat(self, bench_case):
        """In 8 bands, the mean periodogram of 32 spectral records per
        state is within 5 SE of the independently built PSD and of 32
        compat records.  False-alarm rate per two-sided comparison: 6e-7
        under the normal approximation, a few 1e-6 allowing for the
        Gamma skew of the smallest band (7 bins x 32 records); below
        1e-4 over the 32 comparisons."""
        name, compat = bench_case
        bench = BENCHES[name]()
        for state, seed in (("hot", 201), ("cold", 202)):
            z_expected, z_compat = _z_scores(
                _periodogram_of(bench, state, seed),
                compat[state],
                _expected_psd(bench, state),
            )
            assert np.all(np.abs(z_expected) < Z_LIMIT), (state, z_expected)
            assert np.all(np.abs(z_compat) < Z_LIMIT), (state, z_compat)

    def test_rejects_analog_single_pole_magnitude(self, bench_case):
        """Power: records drawn with the analog |H|^2 in place of the
        bilinear response fail the check (the two differ by up to 8x
        near Nyquist)."""
        name, compat = bench_case
        bench = BENCHES[name]()
        wrong = _expected_psd(bench, "cold", magnitude=True)
        analog = BatchNoiseGenerator(spawn_rngs(301, N_RECORDS)).spectral_matrix(
            wrong, bench.n_samples, bench.sample_rate_hz
        )
        z_expected, z_compat = _z_scores(
            _mean_periodogram(analog, bench.sample_rate_hz),
            compat["cold"],
            _expected_psd(bench, "cold"),
        )
        assert np.max(np.abs(z_expected)) > Z_LIMIT
        assert np.max(np.abs(z_compat)) > Z_LIMIT

    def test_rejects_post_gain_error(self, bench_case):
        """Power: records of a chain whose post-amplifier gain is 1.5x
        (2.25x the PSD) fail the check in every band."""
        name, compat = bench_case
        drifted = BENCHES[name]()
        drifted.post_amplifier = drifted.post_amplifier.with_gain_drift(1.5)
        z_expected, z_compat = _z_scores(
            _periodogram_of(drifted, "hot", 401),
            compat["hot"],
            _expected_psd(BENCHES[name](), "hot"),
        )
        assert np.all(z_expected > Z_LIMIT)
        assert np.all(z_compat > Z_LIMIT)


class TestSpectralNoiseFigure:
    def test_nf_error_matches_compat(self):
        """48 production devices at 2**16 samples per path: a two-sample
        t-test on the NF error (measured - true) and an F-test on its
        variance, each two-sided at alpha = 1e-3 (false-alarm rate
        about 2e-3 for the pair).  With sigma ~ 1.13 dB per NF, a 1 dB
        mean shift is detected with power ~ 0.83."""
        errors = {}
        for mode in ("compat", "philox"):
            true_nf, device_rngs = _draw_lot(8.0, 1.5, 48, 11)
            benches = [_build_device_bench(float(v), 2**16) for v in true_nf]
            estimators = [b.make_estimator(nperseg=4096) for b in benches]
            results = MeasurementEngine(rng_mode=mode).measure_devices(
                benches, estimators, rngs=device_rngs
            )
            errors[mode] = np.array(
                [r.noise_figure_db for r in results]
            ) - true_nf
        philox, compat = errors["philox"], errors["compat"]
        assert stats.ttest_ind(philox, compat).pvalue > 1e-3
        ratio = philox.var(ddof=1) / compat.var(ddof=1)
        dof = len(philox) - 1
        p_variance = 2.0 * min(
            stats.f.cdf(ratio, dof, dof), stats.f.sf(ratio, dof, dof)
        )
        assert p_variance > 1e-3
