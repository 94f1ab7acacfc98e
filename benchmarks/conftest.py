"""Shared helpers for the benchmark suite.

Every bench regenerates one paper table/figure: it times the experiment
with ``pytest-benchmark`` (one round — these are full measurements, not
micro-kernels), renders the paper-style rows/series, prints them and
persists them under ``benchmarks/results/`` so the output survives
pytest's capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Return a function that prints and persists a rendered table."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a full experiment with a single timed round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def envinfo() -> dict:
    """The compute-environment record every bench JSON section embeds.

    CPU count, numpy/scipy versions and the kernel implementation
    (always ``"numpy"``) — a benchmark number is meaningless without
    the environment it was measured in (see docs/PERFORMANCE.md,
    "reading BENCH_engine.json").
    """
    from repro.kernels import report

    return report()
