"""Opamp survey: the paper's Table 3 scenario on the full device library.

Measures the noise figure of the same Av=101 non-inverting amplifier
built with each opamp in the library (OP27, OP07, TL081, CA3140) and with
synthetic devices calibrated to the paper's expected column, printing
both the analytical expectation and the BIST measurement.

Run:  python examples/opamp_survey.py
"""

from repro import MeasurementEngine
from repro.analog.opamp import OPAMP_LIBRARY, OpAmpNoiseModel
from repro.experiments.table3 import _hot_temperature_for
from repro.instruments import build_prototype_testbench
from repro.reporting import render_table

N_SAMPLES = 2**18
BAND = (500.0, 1500.0)


def survey_datasheet(engine: MeasurementEngine) -> list:
    rows = []
    for seed, name in enumerate(OPAMP_LIBRARY):
        # High-NF devices need a hotter calibration source to keep the Y
        # factor usable (see EXPERIMENTS.md); pick it per device.
        t_hot = _hot_temperature_for(OPAMP_LIBRARY[name], 600.0)
        bench = build_prototype_testbench(
            name, t_hot_k=t_hot, n_samples=N_SAMPLES
        )
        estimator = bench.make_estimator(noise_band_hz=BAND)
        result = engine.measure(bench, estimator, rng=100 + seed)
        expected = bench.expected_nf_db(*BAND)
        rows.append(
            [name, expected, result.noise_figure_db,
             result.noise_figure_db - expected]
        )
    return rows


def survey_paper_calibrated(engine: MeasurementEngine) -> list:
    paper_expected = {"OP27": 3.7, "OP07": 6.5, "TL081": 10.1, "CA3140": 16.2}
    rows = []
    for seed, (name, target) in enumerate(paper_expected.items()):
        model = OpAmpNoiseModel.from_expected_nf(
            target, 600.0, feedback_parallel_ohm=99.0, gbw_hz=8e6,
            name=f"{name}(paper)",
        )
        bench = build_prototype_testbench(model, n_samples=N_SAMPLES)
        estimator = bench.make_estimator(noise_band_hz=BAND)
        result = engine.measure(bench, estimator, rng=200 + seed)
        rows.append(
            [name, target, result.noise_figure_db,
             result.noise_figure_db - target]
        )
    return rows


def main() -> None:
    engine = MeasurementEngine()
    print(
        render_table(
            ["opamp", "expected NF (dB)", "measured NF (dB)", "error (dB)"],
            survey_datasheet(engine),
            title="Survey A - typical-datasheet opamp models",
        )
    )
    print()
    print(
        render_table(
            ["opamp", "paper expected NF (dB)", "measured NF (dB)", "error (dB)"],
            survey_paper_calibrated(engine),
            title="Survey B - devices calibrated to the paper's expected column",
        )
    )


if __name__ == "__main__":
    main()
