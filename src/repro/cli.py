"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro run table2
    python -m repro run table3 --fast
    python -m repro run fig10
    python -m repro run production --backend process --workers 4
    python -m repro run production --store ./nfstore --json
    python -m repro run record_length --store ./nfstore --resume
    python -m repro store ls ./nfstore
    python -m repro store info ./nfstore [KEY]
    python -m repro store gc ./nfstore
    python -m repro store evict ./nfstore --budget 100000000
    python -m repro chaos --plan transient --seed 7 --backend process
    python -m repro serve --store ./nfstore --backend process
    python -m repro submit lot --param n_devices=24 --wait --json
    python -m repro stats --socket ./nfstore/service.sock
    python -m repro stats --socket ./nfstore/service.sock --watch
    python -m repro --log-level info --log-json serve --store ./nfstore

``--fast`` shrinks record lengths for a quick look; default sizes match
the benchmark suite (paper scale).  ``--backend``/``--workers`` pick
the execution backend for the sweep/production experiments: every
experiment of a ``run`` invocation shares one
:class:`~repro.engine.MeasurementEngine` (and, on the process backend,
its one persistent worker pool).  ``--store`` attaches a
persistent :class:`~repro.store.ResultStore` (measurements cache and
survive the process), ``--resume`` replays an interrupted sweep
computing only what the store is missing, and ``--json`` switches the
planned production/record_length/robustness outputs to
machine-readable JSON.  ``--max-retries``/``--task-timeout`` configure
the process backend's fault tolerance (task retry budget and hung-
worker detection).  The ``store`` subcommand lists and inspects a
store directory (``ls``, ``info``: a walk of its tree), size-bounds it
(``evict --budget``) and garbage-collects it (``gc``);
``run --cache-budget`` applies the same eviction online while a sweep
writes.  The ``chaos`` subcommand runs the
production screen under a named fault-injection plan and verifies the
flagship robustness guarantee from the shell: the faulted outcome must
be bit-identical to a fault-free run.

``serve`` runs the supervised measurement daemon of
:mod:`repro.service` (write-ahead job journal, admission control,
graceful SIGTERM/SIGINT drain, liveness watchdog — see
docs/SERVICE.md), ``submit`` sends one measure/lot/retest job to it,
and ``stats`` asks a running daemon for its telemetry: the
ServiceReport by default, the raw Prometheus exposition with
``--prometheus``, refreshing in place with ``--watch`` (see
docs/OBSERVABILITY.md).  The global ``--log-level``/``--log-json``
flags route every diagnostic through :mod:`logging` — with
``--log-json`` each record is one JSON object carrying the active
trace span id and job key, joinable against the daemon's span
timelines.  Every long-running command is interrupt-safe:
SIGINT/SIGTERM drain the worker pool (killing hung workers after a
grace period) and exit with the distinct code 130 instead of
stranding processes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.reporting.series import render_series
from repro.reporting.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import MeasurementEngine

_LOG = logging.getLogger("repro.cli")


@dataclass(frozen=True)
class RunOptions:
    """Per-invocation options every experiment runner receives."""

    fast: bool = False
    resume: bool = False
    as_json: bool = False


#: An experiment runner: (options, engine) -> rendered output.
ExperimentRunner = Callable[[RunOptions, "MeasurementEngine"], str]

#: Experiments whose runners honor ``--json`` / ``--resume`` (the
#: planned, store-aware ones).
JSON_EXPERIMENTS = frozenset(
    {"production", "production_retest", "record_length", "robustness"}
)
RESUMABLE_EXPERIMENTS = JSON_EXPERIMENTS


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _run_table1(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.table1 import run_table1

    result = run_table1()
    return render_table(
        ["NF (dB)", "F", "example"],
        [[r.nf_db, r.noise_factor, r.example] for r in result.rows],
        title="Table 1",
    )


def _run_table2(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.matlab_sim import MatlabSimConfig
    from repro.experiments.table2 import run_table2

    config = MatlabSimConfig(n_samples=250_000, nperseg=5000) if opts.fast else None
    result = run_table2(config, seed=2005)
    return render_table(
        ["method", "ratio", "F", "NF (dB)", "error (%)"],
        [
            [r.method, r.power_ratio, r.noise_factor, r.nf_db, r.ratio_error_pct]
            for r in result.rows
        ],
        title=f"Table 2 (true ratio {result.true_power_ratio:.4f})",
    )


def _run_table3(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.table3 import run_table3

    result = run_table3(
        mode="paper", n_samples=2**17 if opts.fast else 2**20, seed=2005
    )
    return render_table(
        ["opamp", "expected (dB)", "measured (dB)", "error (dB)"],
        [
            [r.opamp, r.expected_nf_db, r.measured_nf_db, r.error_db]
            for r in result.rows
        ],
        title=f"Table 3 ({result.mode} mode)",
    )


def _run_fig7(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.fig7 import run_fig7
    from repro.experiments.matlab_sim import MatlabSimConfig

    config = MatlabSimConfig(n_samples=250_000, nperseg=5000) if opts.fast else None
    result = run_fig7(config, seed=2005)
    return render_table(
        ["state", "noise RMS", "ref amplitude", "crest factor"],
        [
            [s.state, s.noise_rms, s.reference_amplitude, s.crest_factor]
            for s in (result.hot, result.cold)
        ],
        title=f"Figure 7 (power ratio {result.rms_ratio_squared:.4f})",
    )


def _run_fig8(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.fig8 import run_fig8
    from repro.experiments.matlab_sim import MatlabSimConfig

    config = MatlabSimConfig(n_samples=250_000, nperseg=5000) if opts.fast else None
    result = run_fig8(config, seed=2005)
    return render_table(
        ["quantity", "hot", "cold"],
        [
            ["line power", result.line_power_hot, result.line_power_cold],
            ["floor density", result.floor_density_hot, result.floor_density_cold],
        ],
        title="Figure 8 (raw bitstream levels)",
    )


def _run_fig9(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.fig9 import run_fig9
    from repro.experiments.matlab_sim import MatlabSimConfig

    config = MatlabSimConfig(n_samples=250_000, nperseg=5000) if opts.fast else None
    result = run_fig9(config, seed=2005)
    return render_table(
        ["stage", "hot/cold floor ratio"],
        [
            ["before normalization", result.ratio_before],
            ["after normalization", result.ratio_after],
            ["true power ratio", result.true_power_ratio],
        ],
        title="Figure 9",
    )


def _run_fig10(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.fig10 import run_fig10

    result = run_fig10(n_average=2 if opts.fast else 4, seed=2005, engine=engine)
    ok = [p for p in result.points if not p.failed]
    return render_series(
        [100 * p.reference_ratio for p in ok],
        [p.error_pct for p in ok],
        x_label="Vref/Vnoise (%)",
        y_label="error (%)",
        title="Figure 10",
    )


def _run_fig13(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.fig13 import run_fig13

    result = run_fig13(n_samples=2**17 if opts.fast else 2**20, seed=2005)
    return render_table(
        ["quantity", "value"],
        [
            ["measured NF (dB)", result.bist.noise_figure_db],
            ["expected NF (dB)", result.expected_nf_db],
            ["Y (floor ratio)", result.floor_ratio_after],
        ],
        title="Figure 13",
    )


def _run_uncertainty(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.uncertainty import run_uncertainty

    result = run_uncertainty(
        end_to_end_n_samples=2**16 if opts.fast else 2**18, seed=2005,
        engine=engine,
    )
    return render_table(
        ["NF (dB)", "sigma analytic (dB)", "MC std (dB)", "within 0.3 dB"],
        [
            [r.nf_db, r.sigma_nf_analytic_db, r.nf_std_montecarlo_db, r.within_p3db]
            for r in result.rows
        ],
        title="Uncertainty budget (5% hot-temperature error)",
    )


def _run_spot_nf(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.spot_nf import run_spot_nf

    result = run_spot_nf(n_samples=2**17 if opts.fast else 2**19, seed=2005)
    return render_table(
        ["band (Hz)", "expected (dB)", "linear (dB)", "corrected (dB)"],
        [
            [
                f"{r.f_low_hz:.0f}-{r.f_high_hz:.0f}",
                r.expected_nf_db,
                r.measured_nf_db,
                r.corrected_nf_db,
            ]
            for r in result.rows
        ],
        title="Spot NF per octave band (flicker DUT)",
    )


def _run_resources(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.resources import run_resources

    result = run_resources(n_samples=2**16 if opts.fast else 2**20, seed=2005)
    return render_table(
        ["resource", "value"],
        [
            ["1-bit capture memory (B)", result.onebit_memory_bytes],
            ["12-bit ADC memory (B)", result.adc_memory_bytes_12bit],
            ["saving", result.memory_saving_vs_12bit],
            ["DSP cycles", result.report.dsp_cycles],
            ["total test time (s)", result.report.total_test_time_s],
        ],
        title="SoC resources",
    )


def _guardband_rows_json(rows) -> List[dict]:
    return [
        {
            "guardband_sigmas": r.guardband_sigmas,
            "guardband_db": r.guardband_db,
            "n_pass": r.outcome.n_pass,
            "n_retest": r.outcome.n_retest,
            "n_fail": r.outcome.n_fail,
            "n_escapes": r.outcome.n_escapes,
            "n_overkill": r.outcome.n_overkill,
        }
        for r in rows
    ]


#: Guard-band sweep table shape, shared by production and retest.
_GUARDBAND_HEADERS = [
    "guardband (sigma)",
    "guardband (dB)",
    "pass",
    "retest",
    "fail",
    "escapes",
    "overkill",
]


def _guardband_table_rows(rows) -> List[list]:
    return [
        [
            r.guardband_sigmas,
            r.guardband_db,
            r.outcome.n_pass,
            r.outcome.n_retest,
            r.outcome.n_fail,
            r.outcome.n_escapes,
            r.outcome.n_overkill,
        ]
        for r in rows
    ]


def _run_production(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.production import run_production

    result = run_production(
        n_devices=8 if opts.fast else 24,
        n_samples=2**15 if opts.fast else 2**17,
        seed=2005,
        engine=engine,
        resume=opts.resume,
    )
    if opts.as_json:
        return _dump_json(
            {
                "experiment": "production",
                "limit_db": result.limit_db,
                "measurement_sigma_db": result.measurement_sigma_db,
                "n_devices": result.n_devices,
                "n_plan_groups": result.n_plan_groups,
                "true_nf_db": result.true_nf_db,
                "measured_nf_db": result.measured_nf_db,
                "rows": _guardband_rows_json(result.rows),
            }
        )
    return render_table(
        _GUARDBAND_HEADERS,
        _guardband_table_rows(result.rows),
        title=(
            f"Production screen - {result.n_devices} devices, limit "
            f"{result.limit_db} dB, {result.n_plan_groups} plan group(s)"
        ),
    )


def _run_production_retest(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.production import run_production_retest

    result = run_production_retest(
        n_devices=8 if opts.fast else 24,
        n_samples=2**15 if opts.fast else 2**17,
        seed=2005,
        engine=engine,
        resume=opts.resume,
    )
    if opts.as_json:
        return _dump_json(
            {
                "experiment": "production_retest",
                "limit_db": result.limit_db,
                "measurement_sigma_db": result.measurement_sigma_db,
                "retest_guardband_sigmas": result.retest_guardband_sigmas,
                "n_devices": result.n_devices,
                "n_retested": result.n_retested,
                "retest_indices": result.retest_indices,
                "initial_from_store": result.initial_from_store,
                "true_nf_db": result.true_nf_db,
                "initial_nf_db": result.initial_nf_db,
                "merged_nf_db": result.merged_nf_db,
                "rows": _guardband_rows_json(result.rows),
            }
        )
    return render_table(
        _GUARDBAND_HEADERS,
        _guardband_table_rows(result.rows),
        title=(
            f"Production retest - {result.n_retested}/{result.n_devices} "
            f"devices re-measured"
            + (" (initial screen from store)" if result.initial_from_store
               else "")
        ),
    )


def _run_record_length(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.record_length import run_record_length

    lengths = (2**14, 2**15, 2**16) if opts.fast else None
    kwargs = {} if lengths is None else {"lengths": lengths, "n_trials": 3}
    result = run_record_length(
        seed=2005, engine=engine, resume=opts.resume, **kwargs
    )
    if opts.as_json:
        return _dump_json(
            {
                "experiment": "record_length",
                "expected_nf_db": result.expected_nf_db,
                "points": [
                    {
                        "n_samples": p.n_samples,
                        "n_trials": p.n_trials,
                        "nf_mean_db": p.nf_mean_db,
                        "nf_std_db": p.nf_std_db,
                        "mean_error_db": p.mean_error_db,
                    }
                    for p in result.points
                ],
            }
        )
    return render_table(
        ["n_samples", "trials", "NF mean (dB)", "NF std (dB)", "error (dB)"],
        [
            [p.n_samples, p.n_trials, p.nf_mean_db, p.nf_std_db, p.mean_error_db]
            for p in result.points
        ],
        title=(
            f"Record-length ablation (expected NF "
            f"{result.expected_nf_db:.2f} dB)"
        ),
    )


def _run_robustness(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.robustness import run_robustness

    result = run_robustness(
        n_samples=2**15 if opts.fast else 2**18, seed=2005, engine=engine,
        resume=opts.resume,
    )
    if opts.as_json:
        return _dump_json(
            {
                "experiment": "robustness",
                "baseline_nf_db": result.baseline_nf_db,
                "expected_nf_db": result.expected_nf_db,
                "points": [
                    {
                        "kind": p.kind,
                        "relative_level": p.relative_level,
                        "nf_db": p.nf_db,
                        "shift_db": p.shift_db,
                    }
                    for p in result.points
                ],
            }
        )
    return render_table(
        ["kind", "level", "NF (dB)", "shift (dB)"],
        [
            [
                p.kind,
                p.relative_level,
                "failed" if p.nf_db is None else p.nf_db,
                "-" if p.shift_db is None else p.shift_db,
            ]
            for p in result.points
        ],
        title=(
            f"Comparator robustness (baseline "
            f"{result.baseline_nf_db:.2f} dB)"
        ),
    )


def _run_gain_sensitivity(opts: RunOptions, engine: MeasurementEngine) -> str:
    from repro.experiments.gain_sensitivity import run_gain_sensitivity

    result = run_gain_sensitivity(
        n_samples=2**15 if opts.fast else 2**17, seed=2005, engine=engine
    )
    return render_table(
        ["drift", "direct analytic (dB)", "direct sim (dB)", "Y-factor (dB)"],
        [
            [
                p.gain_drift,
                p.direct_error_analytic_db,
                p.direct_error_simulated_db,
                p.yfactor_error_simulated_db,
            ]
            for p in result.points
        ],
        title=(
            f"Gain-drift sensitivity (expected NF "
            f"{result.expected_nf_db:.2f} dB)"
        ),
    )


EXPERIMENTS: Dict[str, ExperimentRunner] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig13": _run_fig13,
    "uncertainty": _run_uncertainty,
    "resources": _run_resources,
    "spot_nf": _run_spot_nf,
    "production": _run_production,
    "production_retest": _run_production_retest,
    "record_length": _run_record_length,
    "robustness": _run_robustness,
    "gain_sensitivity": _run_gain_sensitivity,
}


def _add_retry_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by ``run`` and ``chaos``."""
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-dispatch a failed task up to N times before dead-"
        "lettering it (process backend; default: 2)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="arm hung-worker detection: a task result overdue by this "
        "much gets the workers killed, respawned and the task "
        "re-dispatched (process backend; default: off)",
    )


def _retry_policy(args):
    """The RetryPolicy the CLI flags describe (None = pool defaults)."""
    if args.max_retries is None and args.task_timeout is None:
        return None
    from repro.engine.scheduler import RetryPolicy

    kwargs = {}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    if args.task_timeout is not None:
        kwargs["task_timeout_s"] = args.task_timeout
    return RetryPolicy(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Noise Figure Evaluation "
        "Using Low Cost BIST' (DATE 2005).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="diagnostic verbosity on stderr (default: warning)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit diagnostics as one JSON object per line, each "
        "carrying the active trace span id and job key where known "
        "(joinable against the daemon's span timelines)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    run.add_argument(
        "--fast",
        action="store_true",
        help="reduced record lengths for a quick look",
    )
    run.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="execution backend for the engine-driven experiments "
        "(production, record_length, robustness, gain_sensitivity, "
        "fig10, uncertainty); process = persistent worker pool; "
        "other experiments always run serial",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker cap for the process backend (default: CPU count)",
    )
    run.add_argument(
        "--rng-mode",
        choices=("compat", "philox"),
        default="compat",
        help="noise-synthesis mode for the engine-driven experiments: "
        "compat replays per-record generator streams bit for bit; "
        "philox is the fast counter-based mode (deterministic per "
        "seed, statistically equivalent, not bit-identical): white-"
        "noise simulation benches synthesize their records directly as "
        "packed bits, testbench chains as one shaped spectrum per record",
    )
    run.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="attach a persistent result store: measurements of the "
        "engine-driven experiments are cached under provenance "
        "keys (cache hits are bit-identical to recomputes) and "
        "survive the process",
    )
    run.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        dest="cache_budget",
        help="cap the attached store's payload size: after warm writes "
        "the engine evicts oldest entries (outcomes stay pinned) "
        "until the store fits (requires --store)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="replay an interrupted sweep from the store, measuring "
        "only the missing tasks (requires --store; "
        + "/".join(sorted(RESUMABLE_EXPERIMENTS))
        + " only)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON output ("
        + "/".join(sorted(JSON_EXPERIMENTS))
        + " only)",
    )
    _add_retry_arguments(run)
    chaos = sub.add_parser(
        "chaos",
        help="run the production screen under injected faults and "
        "verify the outcome matches a fault-free run bit for bit",
    )
    chaos.add_argument(
        "--plan",
        default="transient",
        help="fault plan name (see repro.faults.FAULT_PLANS; default: "
        "transient)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="fault-injection seed (re-keys the plan's deterministic "
        "fault sequence; default: 0)",
    )
    chaos.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="process",
        help="execution backend (default: process — worker-level faults "
        "need worker processes)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker cap for the process backend (default: CPU count)",
    )
    chaos.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="attach a result store to the faulted run: store-level "
        "faults (truncated/corrupted payloads) only fire on store "
        "writes, and a second, resumed pass exercises read-side "
        "quarantine and recovery",
    )
    chaos.add_argument(
        "--fast",
        action="store_true",
        help="reduced lot size and record length for a quick check",
    )
    _add_retry_arguments(chaos)
    store = sub.add_parser(
        "store", help="inspect, evict or garbage-collect a result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    ls = store_sub.add_parser("ls", help="list stored entries")
    info = store_sub.add_parser(
        "info", help="store summary, or one entry's metadata (JSON)"
    )
    gc = store_sub.add_parser(
        "gc", help="remove stale-schema entries and abandoned temp files"
    )
    evict = store_sub.add_parser(
        "evict",
        help="evict oldest entries until the store fits a byte budget "
        "(production outcomes stay pinned unless --unpin-outcomes)",
    )
    for sub_parser in (ls, info, gc, evict):
        sub_parser.add_argument("dir", help="store directory")
    info.add_argument(
        "key",
        nargs="?",
        default=None,
        help="full key or unique prefix of one entry",
    )
    gc.add_argument(
        "--all",
        action="store_true",
        dest="gc_all",
        help="remove every entry, not just dead ones",
    )
    evict.add_argument(
        "--budget",
        type=int,
        required=True,
        metavar="BYTES",
        help="target total payload size in bytes",
    )
    evict.add_argument(
        "--unpin-outcomes",
        action="store_true",
        help="allow evicting production outcome manifests too "
        "(default: outcomes are pinned — they are tiny and hold "
        "lot provenance)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the supervised measurement daemon (journaled job "
        "queue over a Unix/TCP JSON-line socket; SIGTERM drains)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="result-store root; the job journal lives under "
        "<DIR>/service/ and every job resumes against this store",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="Unix socket path (default: <store>/service.sock)",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="listen on TCP host:--port instead of a Unix socket",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="N",
        help="TCP port with --host (default: ephemeral, printed in the "
        "ready event)",
    )
    serve.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="process",
        help="execution backend for the shared engine (default: "
        "process)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker cap for the process backend (default: CPU count)",
    )
    serve.add_argument(
        "--max-depth",
        type=int,
        default=64,
        metavar="N",
        help="admission-queue bound; submissions beyond it are shed "
        "with an explicit REJECTED(backpressure) response "
        "(default: 64)",
    )
    serve.add_argument(
        "--max-group-devices",
        type=int,
        default=8,
        metavar="N",
        help="devices per planned sub-batch — the drain/deadline/"
        "preemption granularity of bulk lots (default: 8)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a drain waits for the in-flight sub-batch "
        "before killing workers (default: 30)",
    )
    serve.add_argument(
        "--watchdog-stall",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="liveness watchdog: a running job with no heartbeat and "
        "no pool progress for this long gets its workers killed and "
        "respawned (default: 60)",
    )
    serve.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on journal appends (accepted jobs still "
        "survive SIGKILL, but not power loss; for tests)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the final ServiceReport as JSON when the daemon "
        "drains",
    )
    _add_retry_arguments(serve)
    submit = sub.add_parser(
        "submit",
        help="submit one job to a running measurement daemon",
    )
    submit.add_argument(
        "kind",
        choices=("measure", "lot", "retest"),
        help="job kind (interactive measure jobs preempt bulk lots at "
        "sub-batch boundaries)",
    )
    submit.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="daemon Unix socket path",
    )
    submit.add_argument(
        "--host", default=None, help="daemon TCP host (with --port)"
    )
    submit.add_argument(
        "--port", type=int, default=0, metavar="N", help="daemon TCP port"
    )
    submit.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="one experiment parameter (repeatable; VALUE parsed as "
        "JSON, falling back to string)",
    )
    submit.add_argument(
        "--params",
        metavar="JSON",
        default=None,
        help="experiment parameters as one JSON object",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget from acceptance; an over-budget job is "
        "killed at its next sub-batch checkpoint",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a terminal state",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="socket timeout, and wait budget with --wait "
        "(default: 300)",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the ack (and terminal job state with --wait) as "
        "JSON",
    )
    stats = sub.add_parser(
        "stats",
        help="query a running daemon's telemetry (ServiceReport, "
        "Prometheus metrics, span traces)",
    )
    stats.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="daemon Unix socket path",
    )
    stats.add_argument(
        "--host", default=None, help="daemon TCP host (with --port)"
    )
    stats.add_argument(
        "--port", type=int, default=0, metavar="N", help="daemon TCP port"
    )
    stats.add_argument(
        "--watch",
        action="store_true",
        help="refresh the view every --interval seconds until "
        "interrupted",
    )
    stats.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period with --watch (default: 2)",
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="print the daemon's metrics in Prometheus text exposition "
        "format instead of the report view (scrape-friendly)",
    )
    stats.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="socket timeout (default: 10)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw stats report (and obs snapshot) as JSON",
    )
    return parser


def _store_main(args) -> int:
    """The ``store`` subcommand: ls / info / gc / evict."""
    from repro.store import ResultStore

    store = ResultStore(args.dir)
    if args.store_command == "ls":
        for entry in store.index():
            print(f"{entry.key}  {entry.kind:8s}  {entry.nbytes:>10d} B")
        return 0
    if args.store_command == "info":
        index = store.index()
        if args.key is None:
            print(_dump_json(index.summary()))
            return 0
        matches = index.find(args.key)
        # One key may carry several kinds (a measurement's result plus
        # its pooled records); ambiguity means several *keys* matched.
        keys = {entry.key for entry in matches}
        if len(keys) != 1:
            print(
                f"key {args.key!r} matches {len(keys)} keys",
                file=sys.stderr,
            )
            return 1
        print(
            _dump_json(
                {
                    "key": matches[0].key,
                    "entries": [
                        {
                            "kind": entry.kind,
                            "nbytes": entry.nbytes,
                            "meta": store.read_meta(entry.kind, entry.key),
                        }
                        for entry in matches
                    ],
                }
            )
        )
        return 0
    if args.store_command == "evict":
        pin_kinds = () if args.unpin_outcomes else ("outcomes",)
        stats = store.evict(args.budget, pin_kinds=pin_kinds)
        print(_dump_json(stats))
        return 0
    removed = store.gc(all_entries=args.gc_all)
    print(_dump_json(removed))
    return 0


def _chaos_main(args) -> int:
    """The ``chaos`` subcommand: faulted run vs clean run, bit for bit.

    Runs the production screen once fault-free (the reference), once
    under the named fault plan, and — with ``--store`` — once more
    resumed against the store the faulted run damaged (read-side
    quarantine and recompute).  Prints a JSON report (injections by
    site, retry/respawn telemetry, per-group wall-clock) and exits
    non-zero unless every faulted outcome matches the reference
    exactly.
    """
    from repro.engine import MeasurementEngine
    from repro.experiments.production import run_production
    from repro.faults import inject, resolve_plan

    plan = resolve_plan(args.plan, seed=args.seed)
    policy = _retry_policy(args)
    kwargs = dict(
        n_devices=8 if args.fast else 24,
        n_samples=2**14 if args.fast else 2**17,
        seed=2005,
        report=True,
    )
    with MeasurementEngine(
        backend=args.backend, max_workers=args.workers, retry=policy
    ) as engine:
        reference = run_production(engine=engine, **kwargs)

    store = None
    if args.store is not None:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    runs = []
    with inject(plan) as injector:
        with MeasurementEngine(
            backend=args.backend,
            max_workers=args.workers,
            store=store,
            retry=policy,
        ) as engine:
            runs.append(("faulted", run_production(engine=engine, **kwargs)))
            if store is not None:
                # Second pass over the damaged store: corrupted entries
                # quarantine on read and recompute.
                runs.append(
                    (
                        "faulted_resume",
                        run_production(engine=engine, resume=True, **kwargs),
                    )
                )

    identical = all(
        r.measured_nf_db == reference.measured_nf_db for _, r in runs
    )
    print(
        _dump_json(
            {
                "plan": plan.describe(),
                "identical": identical,
                "injections": injector.summary(),
                "runs": {
                    name: r.run_report.describe() for name, r in runs
                },
            }
        )
    )
    return 0 if identical else 1


def _serve_main(args) -> int:
    """The ``serve`` subcommand: run the supervised daemon until drained.

    Prints a one-line ``ready`` JSON event (socket/host/port) once the
    listener is up, then serves until SIGTERM/SIGINT or a ``drain``
    request.  The exit code is the daemon's drain verdict: 0 when
    every acknowledged job finished, 70 (``EXIT_JOBS_DROPPED``) when
    jobs were left unfinished — they stay journaled, and restarting
    the daemon on the same store resumes them.
    """
    from repro.service import MeasurementService, ServiceConfig

    if args.host is None and args.port:
        _LOG.error("repro serve: --port requires --host")
        return 2
    config = ServiceConfig(
        store_root=args.store,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_workers=args.workers,
        max_depth=args.max_depth,
        max_group_devices=args.max_group_devices,
        drain_grace_s=args.drain_grace,
        watchdog_stall_s=args.watchdog_stall,
        journal_fsync=not args.no_fsync,
        retry=_retry_policy(args),
    )
    service = MeasurementService(config)

    def _ready(endpoint: dict) -> None:
        print(json.dumps({"event": "ready", **endpoint}), flush=True)

    code = service.run(ready_callback=_ready)
    report = service.report().describe()
    if args.as_json:
        print(
            _dump_json(
                {"event": "drained", "exit_code": code, "report": report}
            )
        )
    else:
        print(
            f"drained: {report['completed']} completed, "
            f"{report['failed']} failed, {report['dropped']} dropped, "
            f"{report['shed']} shed (exit {code})"
        )
    return code


def _service_address(args, command: str):
    """The daemon address the flags describe, or ``None`` (logged)."""
    if args.host is not None:
        return (args.host, args.port)
    if args.socket is not None:
        return args.socket
    _LOG.error(
        "repro %s: need --socket PATH or --host/--port", command
    )
    return None


def _render_stats(report: dict) -> str:
    """A compact human view of one ServiceReport dict."""
    pool = report.get("pool") or {}
    journal = report.get("journal") or {}
    lines = [
        (
            f"uptime {report.get('uptime_s', 0.0):.1f}s  "
            f"queue depth {report.get('queue_depth', 0)}  "
            f"draining {report.get('draining', False)}"
        ),
        (
            f"jobs: accepted {report.get('accepted', 0)}, "
            f"completed {report.get('completed', 0)}, "
            f"failed {report.get('failed', 0)}, "
            f"dropped {report.get('dropped', 0)}, "
            f"shed {report.get('shed', 0)}, "
            f"duplicates {report.get('duplicates', 0)}, "
            f"cached {report.get('cached_hits', 0)}"
        ),
        (
            f"kills: deadline {report.get('deadline_kills', 0)}, "
            f"watchdog {report.get('watchdog_kills', 0)}; "
            f"replayed {report.get('journal_replayed', 0)}"
        ),
        (
            f"journal: {journal.get('segments', 0)} segment(s), "
            f"{journal.get('bytes', 0)} B, "
            f"{report.get('records_since_rotate', 0)} record(s) since "
            f"rotation"
        ),
        (
            f"pool: attempts {pool.get('attempts', 0)}, "
            f"retries {pool.get('retries', 0)}, "
            f"timeouts {pool.get('timeouts', 0)}, "
            f"respawns {pool.get('respawns', 0)}, "
            f"spawns {pool.get('spawns', 0)}"
        ),
    ]
    snap = report.get("obs")
    if snap:
        n_counters = len(snap.get("counters", ()))
        n_hists = len(snap.get("histograms", ()))
        lines.append(
            f"obs: {n_counters} counter(s), {n_hists} histogram(s) "
            f"(repro stats --prometheus for the full exposition)"
        )
    return "\n".join(lines)


def _stats_main(args) -> int:
    """The ``stats`` subcommand: one-shot or ``--watch`` telemetry view.

    Talks to a running daemon over the same socket ``submit`` uses:
    the ``stats`` op for the report view, the ``metrics`` op for
    ``--prometheus``.  ``--watch`` redraws every ``--interval``
    seconds until interrupted (exit 0 on Ctrl-C — stopping a watch is
    not an error).
    """
    from repro.service import ServiceClient
    from repro.service.client import ServiceConnectionError

    address = _service_address(args, "stats")
    if address is None:
        return 2
    interval = max(0.2, float(args.interval))
    first = True
    try:
        while True:
            try:
                with ServiceClient(
                    address, timeout_s=args.timeout
                ) as client:
                    if args.prometheus:
                        body = client.metrics().get("prometheus", "")
                    elif args.as_json:
                        body = _dump_json(client.stats())
                    else:
                        body = _render_stats(client.stats())
            except ServiceConnectionError as exc:
                _LOG.error("repro stats: %s", exc)
                return 1
            if args.watch and not first and not args.as_json:
                # Home + clear-to-end redraw keeps the view in place.
                sys.stdout.write("\x1b[H\x1b[2J")
            print(body, flush=True)
            if not args.watch:
                return 0
            first = False
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _submit_main(args) -> int:
    """The ``submit`` subcommand: one job to a running daemon.

    Submission is resilient by construction: the spec's content
    address is its idempotency token, so a lost connection is retried
    with a resubmit and at most one execution ever happens.
    """
    from repro.errors import ConfigurationError
    from repro.service import JobSpec, ServiceClient
    from repro.service.client import ServiceConnectionError

    params = {}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            _LOG.error("repro submit: bad --params JSON: %s", exc)
            return 2
    for pair in args.param or []:
        key, sep, value = pair.partition("=")
        if not sep:
            _LOG.error(
                "repro submit: --param needs KEY=VALUE, got %r", pair
            )
            return 2
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    address = _service_address(args, "submit")
    if address is None:
        return 2
    try:
        spec = JobSpec(
            kind=args.kind, params=params, deadline_s=args.deadline
        )
    except ConfigurationError as exc:
        _LOG.error("repro submit: %s", exc)
        return 2
    try:
        with ServiceClient(address, timeout_s=args.timeout) as client:
            ack = client.submit_resilient(
                spec, wait=args.wait, wait_timeout_s=args.timeout
            )
    except ServiceConnectionError as exc:
        _LOG.error(
            "repro submit: %s", exc, extra={"key": spec.key()[:12]}
        )
        return 1
    if args.as_json:
        print(_dump_json(ack))
    else:
        line = f"{ack.get('status', 'error')} {ack.get('key', '')[:12]}"
        job = ack.get("job")
        if job is not None:
            line += f" -> {job['state']}"
            if job.get("error"):
                line += f" ({job['error']})"
        print(line)
    status = ack.get("status")
    if status not in ("accepted", "duplicate", "cached"):
        return 1
    if args.wait:
        job = ack.get("job") or {}
        return 0 if job.get("state") == "ok" else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``run`` and ``chaos`` are interrupt-safe: SIGINT/SIGTERM raise
    through the engine context (persisting whatever each
    experiment already committed), the worker pool is drained with a
    kill-after-grace fallback for hung workers, and the process exits
    with the distinct code ``EXIT_INTERRUPTED`` (130).  ``serve``
    installs its own drain handlers in the daemon's event loop.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs.logs import setup_logging

    setup_logging(level=args.log_level, as_json=args.log_json)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "submit":
        return _submit_main(args)
    if args.command == "stats":
        return _stats_main(args)
    from repro.service.lifecycle import (
        EXIT_INTERRUPTED,
        ServiceInterrupt,
        trap_signals,
    )

    try:
        with trap_signals():
            return _dispatch(parser, args)
    except ServiceInterrupt as exc:
        _LOG.warning(
            "interrupted by signal %s; worker pool drained, committed "
            "results persisted",
            exc.signum,
        )
        return EXIT_INTERRUPTED


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    """Everything except serve/submit (which manage their own signals)."""
    if args.command == "store":
        return _store_main(args)
    if args.command == "chaos":
        return _chaos_main(args)
    if args.command == "run":
        if args.workers is not None and args.backend != "process":
            parser.error("--workers requires --backend process")
        if args.resume and args.store is None:
            parser.error("--resume requires --store")
        if args.cache_budget is not None and args.store is None:
            parser.error("--cache-budget requires --store")
        if args.as_json and args.experiment not in JSON_EXPERIMENTS:
            parser.error(
                "--json supports " + "/".join(sorted(JSON_EXPERIMENTS))
            )
        if args.resume and args.experiment not in RESUMABLE_EXPERIMENTS:
            parser.error(
                "--resume supports " + "/".join(sorted(RESUMABLE_EXPERIMENTS))
            )
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    from repro.engine import MeasurementEngine

    store = None
    if args.store is not None:
        from repro.store import ResultStore

        store = ResultStore(args.store)
    opts = RunOptions(
        fast=args.fast, resume=args.resume, as_json=args.as_json
    )
    # One engine per invocation: `run all --backend process` reuses a
    # single worker pool (and one store) across every experiment.
    with MeasurementEngine(
        backend=args.backend,
        max_workers=args.workers,
        rng_mode=args.rng_mode,
        store=store,
        retry=_retry_policy(args),
        cache_budget_bytes=getattr(args, "cache_budget", None),
    ) as engine:
        try:
            if args.experiment == "all":
                for name in sorted(EXPERIMENTS):
                    print(EXPERIMENTS[name](opts, engine))
                    print()
                return 0
            print(EXPERIMENTS[args.experiment](opts, engine))
        except BaseException:
            # Interrupt (or any raise) mid-experiment: drain the pool
            # with a kill-after-grace fallback so hung workers cannot
            # block the exit, then let the signal/exception surface.
            from repro.service.lifecycle import drain_engine

            drain_engine(engine, kill_after_s=10.0)
            raise
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
