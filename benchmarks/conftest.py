"""Shared helpers for the benchmark suite.

Every paper bench regenerates one paper table/figure: it times the
experiment with ``pytest-benchmark`` (one round — these are full
measurements, not micro-kernels), renders the paper-style
rows/series, prints them and persists them under
``benchmarks/results/`` so the output survives pytest's capture.
``bench_claims.py`` times its claims itself and persists one line per
claim the same way.
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
