"""Quickstart: measure an amplifier's noise figure with the 1-bit BIST.

Builds the paper's figure-11 prototype (calibrated hot/cold noise source,
non-inverting DUT with an OP27, post-amplifier, 3 kHz sine reference,
comparator digitizer), runs the two-state measurement and compares the
result against the analytical expectation.

Run:  python examples/quickstart.py
"""

from repro import MeasurementEngine
from repro.instruments import build_prototype_testbench
from repro.reporting import render_table


def main() -> None:
    # 1. Assemble the testbench: OP27 DUT, Av=101, Rs=600 ohm,
    #    Th=2900 K / Tc=290 K source, 2^19-sample acquisitions.
    bench = build_prototype_testbench("OP27", n_samples=2**19)

    # 2. The estimator wraps Welch PSD -> reference-line normalization ->
    #    Y factor -> noise figure (paper eqs 5-9).
    estimator = bench.make_estimator()

    # 3. The engine acquires the hot and cold bitstreams and estimates.
    result = MeasurementEngine().measure(bench, estimator, rng=2005)

    expected = bench.expected_nf_db(500.0, 1500.0)
    print(
        render_table(
            ["quantity", "value"],
            [
                ["reference level (x cold noise RMS)",
                 bench.reference_level_ratio("cold")],
                ["measured Y factor", result.y],
                ["measured noise factor F", result.noise_factor],
                ["measured noise figure (dB)", result.noise_figure_db],
                ["expected noise figure (dB)", expected],
                ["error (dB)", result.noise_figure_db - expected],
            ],
            title="1-bit BIST noise-figure measurement (OP27 DUT)",
        )
    )


if __name__ == "__main__":
    main()
