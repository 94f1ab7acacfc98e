"""Tests for the repro CLI."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.fast is False

    def test_fast_flag(self):
        args = build_parser().parse_args(["run", "table2", "--fast"])
        assert args.fast is True

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(EXPERIMENTS)

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "RF mixer" in out

    def test_run_fig9_fast(self, capsys):
        assert main(["run", "fig9", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "after normalization" in out

    def test_run_uncertainty_fast(self, capsys):
        assert main(["run", "uncertainty", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "0.3" in out

    def test_registry_covers_all_paper_artifacts(self):
        for name in ("table1", "table2", "table3", "fig7", "fig8", "fig9",
                     "fig10", "fig13"):
            assert name in EXPERIMENTS

    def test_registry_includes_extensions(self):
        assert "spot_nf" in EXPERIMENTS
        assert "resources" in EXPERIMENTS

    def test_run_all_accepted_by_parser(self):
        args = build_parser().parse_args(["run", "all", "--fast"])
        assert args.experiment == "all"


class TestBackendOptions:
    def test_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.backend == "serial"
        assert args.workers is None

    def test_backend_and_workers_parsed(self):
        args = build_parser().parse_args(
            ["run", "production", "--backend", "process", "--workers", "2"]
        )
        assert args.backend == "process"
        assert args.workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "production", "--backend", "threads"]
            )

    def test_workers_without_process_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "production", "--fast", "--workers", "2"])

    def test_registry_includes_scheduler_experiments(self):
        for name in (
            "production",
            "record_length",
            "robustness",
            "gain_sensitivity",
        ):
            assert name in EXPERIMENTS

    def test_run_production_fast(self, capsys):
        assert main(["run", "production", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Production screen" in out
        assert "plan group" in out

    def test_run_gain_sensitivity_fast_process(self, capsys):
        assert (
            main(
                [
                    "run",
                    "gain_sensitivity",
                    "--fast",
                    "--backend",
                    "process",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Gain-drift sensitivity" in out


class TestStoreOptions:
    def test_store_resume_json_parsed(self):
        args = build_parser().parse_args(
            ["run", "production", "--store", "/tmp/s", "--resume", "--json"]
        )
        assert args.store == "/tmp/s"
        assert args.resume is True
        assert args.as_json is True

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["run", "production", "--fast", "--resume"])

    def test_json_restricted_to_supported_experiments(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--json"])

    def test_resume_restricted_to_supported_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["run", "table1", "--resume", "--store", str(tmp_path / "s")]
            )

    def test_registry_includes_retest(self):
        assert "production_retest" in EXPERIMENTS

    def test_run_production_json(self, capsys):
        import json

        assert main(["run", "production", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "production"
        assert payload["n_devices"] == 8
        assert len(payload["measured_nf_db"]) == 8
        assert {"n_pass", "n_fail", "n_escapes"} <= set(payload["rows"][0])

    def test_run_robustness_json(self, capsys):
        import json

        assert main(["run", "robustness", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "robustness"
        assert payload["points"]

    def test_run_with_store_caches_and_resumes(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "nfstore")
        argv = ["run", "production", "--fast", "--store", store_dir, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        # Resumed values reproduce the stored screen bit for bit.
        assert resumed["measured_nf_db"] == cold["measured_nf_db"]
        assert resumed["rows"] == cold["rows"]


class TestStoreSubcommand:
    def _populate(self, store_dir):
        assert (
            main(["run", "production", "--fast", "--store", store_dir]) == 0
        )

    def test_ls_and_info(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "ls", store_dir]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all("results" in l or "outcomes" in l for l in lines)

        import json

        assert main(["store", "info", store_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_entries"] == len(lines)
        assert summary["kinds"]["results"]["n_entries"] >= 8

        key = lines[0].split()[0]
        assert main(["store", "info", store_dir, key[:12]]) == 0
        entry = json.loads(capsys.readouterr().out)
        assert entry["key"] == key
        assert entry["entries"][0]["meta"]["schema"] >= 1

    def test_info_ambiguous_prefix_fails(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "info", store_dir, ""]) == 1

    def test_gc_clean_store_removes_nothing(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        import json

        assert main(["store", "gc", store_dir]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed["n_removed"] == 0

    def test_gc_all_empties_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        import json

        assert main(["store", "gc", store_dir, "--all"]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed["n_removed"] > 0
        assert main(["store", "info", store_dir]) == 0
        assert json.loads(capsys.readouterr().out)["n_entries"] == 0

    def test_store_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])


class TestChaosSubcommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.plan == "transient"
        assert args.seed == 0
        assert args.backend == "process"
        assert args.max_retries is None
        assert args.task_timeout is None

    def test_retry_flags_parsed(self):
        args = build_parser().parse_args(
            ["chaos", "--max-retries", "5", "--task-timeout", "2.5"]
        )
        assert args.max_retries == 5
        assert args.task_timeout == 2.5

    def test_run_accepts_retry_flags(self, capsys):
        assert (
            main(
                [
                    "run",
                    "production",
                    "--fast",
                    "--max-retries",
                    "1",
                ]
            )
            == 0
        )
        assert "production screen" in capsys.readouterr().out.lower()

    def test_unknown_plan_rejected(self, capsys):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["chaos", "--plan", "nope", "--fast"])

    def test_chaos_serial_identity(self, tmp_path, capsys):
        # Serial backend keeps this test cheap: store faults still
        # fire, and the faulted outcomes must match the clean
        # reference exactly (exit code 0).
        import json

        rc = main(
            [
                "chaos",
                "--plan",
                "store",
                "--seed",
                "3",
                "--backend",
                "serial",
                "--fast",
                "--store",
                str(tmp_path / "chaos"),
            ]
        )
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert rc == 0
        assert doc["identical"] is True
        assert doc["injections"]["n_injected"] > 0
        assert set(doc["runs"]) == {"faulted", "faulted_resume"}


class TestBenchCommand:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_envinfo_prints_json(self, capsys):
        import json

        assert main(["bench", "envinfo"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"cpu_count", "numpy", "scipy", "kernel_backend"}
        assert doc["kernel_backend"] == "numpy"
        assert doc["cpu_count"] >= 1


class TestStoreScaleSubcommands:
    """ls/info on the tree walk, evict, --cache-budget."""

    def _populate(self, store_dir):
        assert (
            main(["run", "production", "--fast", "--store", store_dir]) == 0
        )

    def test_ls_lists_the_walk_on_stdout_only(self, tmp_path, capsys):
        from repro.store import ResultStore

        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "ls", store_dir]) == 0
        captured = capsys.readouterr()
        # One "key kind nbytes B" line per walked entry, nothing else.
        walk = ResultStore(store_dir).index()
        assert captured.out.splitlines() == [
            f"{e.key}  {e.kind:8s}  {e.nbytes:>10d} B" for e in walk
        ]
        assert captured.err == ""

    def test_info_summarizes_the_walk(self, tmp_path, capsys):
        import json

        from repro.store import ResultStore

        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "info", store_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == ResultStore(store_dir).index().summary()
        assert summary["kinds"]["outcomes"]["n_entries"] == 1
        assert summary["n_entries"] == summary["kinds"]["results"][
            "n_entries"
        ] + 1

    def test_removed_subcommands_rejected(self, tmp_path):
        for command in ("compact", "reindex"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["store", command, str(tmp_path)])

    def test_evict_respects_budget_and_pins(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "evict", store_dir, "--budget", "1"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_evicted"] > 0
        assert stats["n_pinned"] >= 1  # the production outcome survives
        assert main(["store", "info", store_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kinds"]["outcomes"]["n_entries"] == 1
        assert summary["kinds"]["results"]["n_entries"] == 0

    def test_evict_unpin_outcomes_empties_store(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "s")
        self._populate(store_dir)
        capsys.readouterr()
        assert (
            main(
                [
                    "store",
                    "evict",
                    store_dir,
                    "--budget",
                    "0",
                    "--unpin-outcomes",
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_bytes_after"] == 0

    def test_evict_requires_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "evict", str(tmp_path)])

    def test_cache_budget_parsed(self):
        args = build_parser().parse_args(
            [
                "run",
                "production",
                "--store",
                "/tmp/s",
                "--cache-budget",
                "1000000",
            ]
        )
        assert args.cache_budget == 1_000_000

    def test_cache_budget_requires_store(self):
        with pytest.raises(SystemExit):
            main(["run", "production", "--fast", "--cache-budget", "1000"])

    def test_run_with_cache_budget_bounds_store(self, tmp_path, capsys):
        import json

        store_dir = str(tmp_path / "s")
        budget = 150_000
        assert (
            main(
                [
                    "run",
                    "production",
                    "--fast",
                    "--store",
                    store_dir,
                    "--cache-budget",
                    str(budget),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["store", "info", store_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_bytes"] <= budget
        assert summary["kinds"]["outcomes"]["n_entries"] == 1


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.command == "serve"
        assert args.store == "s"
        assert args.backend == "process"
        assert args.max_depth == 64
        assert args.max_group_devices == 8
        assert args.drain_grace == 30.0
        assert args.no_fsync is False

    def test_submit_parser(self):
        args = build_parser().parse_args(
            [
                "submit",
                "lot",
                "--socket",
                "svc.sock",
                "--param",
                "n_devices=4",
                "--deadline",
                "60",
                "--wait",
                "--json",
            ]
        )
        assert args.kind == "lot"
        assert args.param == ["n_devices=4"]
        assert args.deadline == 60.0
        assert args.wait is True
        assert args.as_json is True

    def test_submit_kind_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "destroy"])

    def test_submit_requires_address(self, capsys):
        assert main(["submit", "measure"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_submit_rejects_bad_params_json(self, capsys):
        assert (
            main(
                [
                    "submit",
                    "measure",
                    "--socket",
                    "s",
                    "--params",
                    "{not json",
                ]
            )
            == 2
        )
        assert "bad --params JSON" in capsys.readouterr().err

    def test_submit_rejects_bad_param_pair(self, capsys):
        assert (
            main(
                ["submit", "measure", "--socket", "s", "--param", "seed"]
            )
            == 2
        )
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_submit_unreachable_daemon_fails(self, tmp_path, capsys):
        rc = main(
            [
                "submit",
                "measure",
                "--socket",
                str(tmp_path / "nothing.sock"),
                "--timeout",
                "2",
            ]
        )
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_round_trip_against_daemon(self, tmp_path, capsys):
        import json
        import queue
        import threading

        from repro.service import MeasurementService, ServiceConfig

        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            backend="serial",
            journal_fsync=False,
        )
        service = MeasurementService(config)
        ready: "queue.Queue" = queue.Queue()
        thread = threading.Thread(
            target=lambda: service.run(ready.put), daemon=True
        )
        thread.start()
        socket_path = ready.get(timeout=30.0)["socket"]
        try:
            rc = main(
                [
                    "submit",
                    "measure",
                    "--socket",
                    socket_path,
                    "--param",
                    "seed=3",
                    "--param",
                    "n_samples=16384",
                    "--wait",
                    "--json",
                    "--timeout",
                    "120",
                ]
            )
            ack = json.loads(capsys.readouterr().out)
            assert rc == 0
            assert ack["status"] == "accepted"
            assert ack["job"]["state"] == "ok"
        finally:
            service.request_drain()
            thread.join(timeout=60.0)
