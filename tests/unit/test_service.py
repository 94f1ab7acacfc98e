"""Tests for the measurement service: protocol + client/server round trip.

The round-trip tests run a real :class:`MeasurementService` in a
background thread (serial backend, fsync off) and talk to it through
:class:`ServiceClient` over a Unix socket — the same path the CLI
``serve`` / ``submit`` pair uses, minus the subprocess.
"""

import json
import queue as queue_mod
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, inject
from repro.service import (
    MeasurementService,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceConnectionError,
    wait_for_server,
)
from repro.service.protocol import (
    JobSpec,
    decode_line,
    encode_line,
    parse_job_spec,
    parse_request,
)

N_SAMPLES = 2**14  # smallest record length the Y-factor fit tolerates
NPERSEG = 2048


class TestProtocol:
    def test_line_round_trip(self):
        message = {"op": "submit", "job": {"kind": "measure"}, "wait": True}
        assert decode_line(encode_line(message)) == message

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (2**20 + 1))

    def test_non_object_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")

    def test_parse_request_validates_op(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "halt"})
        with pytest.raises(ProtocolError):
            parse_request({"op": "status", "key": 7})

    def test_parse_request_coerces_submit(self):
        request = parse_request(
            {"op": "submit", "job": {"kind": "lot", "params": {"seed": 1}}}
        )
        assert isinstance(request["job"], JobSpec)
        assert request["wait"] is False

    def test_unknown_job_fields_rejected(self):
        with pytest.raises(ProtocolError):
            parse_job_spec({"kind": "measure", "nice": -20})

    def test_key_excludes_deadline(self):
        base = JobSpec(kind="measure", params={"seed": 5})
        budgeted = JobSpec(
            kind="measure", params={"seed": 5}, deadline_s=30.0
        )
        assert base.key() == budgeted.key()
        assert base.key() != JobSpec(
            kind="measure", params={"seed": 6}
        ).key()

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="destroy")
        with pytest.raises(ConfigurationError):
            JobSpec(kind="measure", deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            JobSpec(kind="measure", params="seed=1")


def _start_daemon(store_root, **overrides):
    """One in-process daemon on a Unix socket; returns its handles."""
    config = ServiceConfig(
        store_root=str(store_root),
        backend="serial",
        journal_fsync=False,
        max_group_devices=1,
        **overrides,
    )
    service = MeasurementService(config)
    ready: "queue_mod.Queue" = queue_mod.Queue()
    codes: list = []
    thread = threading.Thread(
        target=lambda: codes.append(service.run(ready.put)), daemon=True
    )
    thread.start()
    endpoint = ready.get(timeout=30.0)
    address = endpoint.get("socket") or (
        endpoint["host"],
        endpoint["port"],
    )
    wait_for_server(address, timeout_s=10.0)
    return service, thread, codes, address


@pytest.fixture(scope="class")
def daemon(request, tmp_path_factory):
    store_root = tmp_path_factory.mktemp("service") / "store"
    service, thread, codes, address = _start_daemon(store_root)
    yield service, address
    service.request_drain()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "daemon failed to drain"


def measure_spec(seed, **extra):
    params = {"seed": seed, "n_samples": N_SAMPLES, "nperseg": NPERSEG}
    params.update(extra)
    return JobSpec(kind="measure", params=params)


class TestRoundTrip:
    def test_ping_and_stats(self, daemon):
        _, address = daemon
        with ServiceClient(address) as client:
            assert client.ping()
            report = client.stats()
        assert report["draining"] is False

    def test_submit_wait_returns_terminal_result(self, daemon):
        _, address = daemon
        spec = measure_spec(seed=100)
        with ServiceClient(address) as client:
            ack = client.submit(spec, wait=True, wait_timeout_s=120.0)
        assert ack["status"] == "accepted"
        assert ack["key"] == spec.key()
        job = ack["job"]
        assert job["state"] == "ok"
        assert job["result"]["kind"] == "measure"
        assert 0.0 < job["result"]["noise_figure_db"] < 20.0
        type(self).first_nf = job["result"]["noise_figure_db"]

    def test_resubmit_answered_from_cache(self, daemon):
        service, address = daemon
        before = service.n_cached_hits
        with ServiceClient(address) as client:
            ack = client.submit(measure_spec(seed=100), wait=True)
        assert ack["status"] == "cached"
        assert ack["job"]["result"]["noise_figure_db"] == self.first_nf
        assert service.n_cached_hits == before + 1

    def test_status_op(self, daemon):
        _, address = daemon
        spec = measure_spec(seed=100)
        with ServiceClient(address) as client:
            view = client.status(spec.key())
            assert view["state"] == "ok"
            assert client.status("ab" * 32) is None

    def test_metrics_op_exposes_telemetry(self, daemon):
        # Runs after the submit tests above, so job-lifecycle counters
        # are already non-zero.
        _, address = daemon
        with ServiceClient(address) as client:
            response = client.metrics(trace_limit=16)
        assert response["ok"] is True
        assert response["enabled"] is True
        assert "repro_service_jobs_total" in response["prometheus"]
        snap = response["metrics"]
        assert any(
            c["name"] == "service.submits" for c in snap["counters"]
        )
        trace = response["trace"]
        assert trace["recorded"] >= 1
        assert len(trace["events"]) <= 16
        assert any(
            e["name"] == "job.done" for e in trace["events"]
        )

    def test_stats_report_carries_journal_and_obs(self, daemon):
        _, address = daemon
        with ServiceClient(address) as client:
            report = client.stats()
        assert report["journal"]["segments"] >= 1
        assert report["journal"]["bytes"] > 0
        assert report["records_since_rotate"] >= 1
        assert report["obs"] is not None
        assert any(
            g["name"] == "service.queue_depth"
            for g in report["obs"]["gauges"]
        )

    def test_malformed_requests_get_error_lines(self, daemon):
        _, address = daemon
        with ServiceClient(address) as client:
            response = client.request({"op": "halt"})
            assert response["ok"] is False
            assert "op" in response["error"]
            response = client.request(
                {"op": "submit", "job": {"kind": "destroy"}}
            )
            assert response["ok"] is False

    def test_bad_params_fail_terminally(self, daemon):
        _, address = daemon
        spec = JobSpec(kind="lot", params={"no_such_param": 1})
        with ServiceClient(address) as client:
            ack = client.submit(spec, wait=True, wait_timeout_s=60.0)
        assert ack["job"]["state"] == "failed"
        assert "bad job spec" in ack["job"]["error"]

    def test_deadline_expired_before_run(self, daemon):
        service, address = daemon
        spec = JobSpec(
            kind="measure",
            params={"seed": 101, "n_samples": N_SAMPLES},
            deadline_s=1e-6,
        )
        with ServiceClient(address) as client:
            ack = client.submit(spec, wait=True, wait_timeout_s=60.0)
        assert ack["job"]["state"] == "deadline"
        # Even a never-run expiry is journaled terminally: a restart
        # must not resurrect a job whose budget is already spent.
        assert service.journal.replay().entries[spec.key()].status == (
            "deadline"
        )

    def test_oversized_request_line_gets_error_not_hangup(self, daemon):
        # A line past the reader limit cannot even be framed; the
        # daemon must answer with a protocol error instead of letting
        # the overrun escape _handle_connection and drop the client
        # without a word.
        from repro.service.protocol import MAX_LINE_BYTES

        _, address = daemon
        payload = (
            b'{"op":"ping","pad":"'
            + b"x" * (MAX_LINE_BYTES + 4096)
            + b'"}\n'
        )
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(address)
            sock.settimeout(30.0)
            sock.sendall(payload)
            data = b""
            while b"\n" not in data:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        response = json.loads(data.split(b"\n", 1)[0])
        assert response["ok"] is False
        assert "exceeds" in response["error"]

    def test_journal_records_lifecycle(self, daemon):
        service, _ = daemon
        state = service.journal.replay()
        done = state.entries[measure_spec(seed=100).key()]
        assert done.status == "ok"
        # Every completed job above has its terminal record.
        assert all(
            not entry.incomplete for entry in state.entries.values()
        )


class TestFaultSites:
    def test_disconnect_then_resilient_resubmit(self, tmp_path):
        service, thread, codes, address = _start_daemon(
            tmp_path / "store"
        )
        try:
            spec = measure_spec(seed=200)
            with inject(FaultPlan(client_disconnect=1.0)) as injector:
                with pytest.raises(ServiceConnectionError):
                    ServiceClient(address).submit(spec)
            assert injector.counts().get("client_disconnect") == 1
            assert service.n_disconnect_drops == 1
            # The job WAS accepted and journaled before the drop; the
            # idempotent resubmit attaches to it instead of recomputing.
            with ServiceClient(address) as client:
                ack = client.submit_resilient(
                    spec, wait=True, wait_timeout_s=120.0
                )
            assert ack["status"] in ("duplicate", "cached")
            assert ack["job"]["state"] == "ok"
            assert service.queue.n_accepted == 1
        finally:
            service.request_drain()
            thread.join(timeout=60.0)
        assert codes == [0]

    def test_job_deadline_fault_kills_lot_at_checkpoint(self, tmp_path):
        service, thread, codes, address = _start_daemon(
            tmp_path / "store"
        )
        try:
            spec = JobSpec(
                kind="lot",
                params={
                    "n_devices": 4,
                    "n_samples": N_SAMPLES,
                    "nperseg": NPERSEG,
                    "seed": 9,
                },
                deadline_s=3600.0,
            )
            with inject(FaultPlan(job_deadline=1.0)):
                with ServiceClient(address) as client:
                    ack = client.submit(
                        spec, wait=True, wait_timeout_s=120.0
                    )
            assert ack["job"]["state"] == "deadline"
            assert "budget" in ack["job"]["error"]
            assert service.n_deadline_kills == 1
            # The killed lot is terminal (budget spent is spent): its
            # journal record is a done/deadline, not an incomplete.
            entry = service.journal.replay().entries[spec.key()]
            assert entry.status == "deadline"
            # A fresh submission redoes the lot and resumes from the
            # sub-batches the killed run committed.
            with ServiceClient(address) as client:
                ack = client.submit(spec, wait=True, wait_timeout_s=240.0)
            assert ack["job"]["state"] == "ok"
            assert len(ack["job"]["result"]["measured_nf_db"]) == 4
        finally:
            service.request_drain()
            thread.join(timeout=60.0)
        assert codes == [0]


class TestJournalMaintenance:
    def test_drain_during_held_admission_journals_drop(self, tmp_path):
        # A drain that wins the held-admission race rejects the client,
        # so the already-journaled accept must be cancelled with a
        # dropped record — the next daemon may not run a job whose
        # client was told it will not run.
        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            backend="serial",
            journal_fsync=False,
        )
        service = MeasurementService(config)
        try:
            service.journal.initialize()
            spec = measure_spec(seed=300)
            verdict, job = service.queue.submit(spec, hold=True)
            assert verdict == "accepted"
            service.journal.record_accept(job.key, spec, 0.0)
            service.queue.drain()
            assert service._release_held(job) is False
            assert service.n_dropped == 1
            assert job.state == "dropped"
            entry = service.journal.replay().entries[spec.key()]
            assert entry.status == "dropped"
            assert not entry.incomplete
            # A restarted daemon replays nothing for this key.
            restarted = MeasurementService(config)
            try:
                assert restarted.replay_journal() == 0
            finally:
                restarted.sched.close()
        finally:
            service.sched.close()

    def test_journal_rotates_under_sustained_traffic(self, tmp_path):
        # The journal must compact while serving, not only at drain —
        # done records embed full results and would grow disk without
        # bound on a long-lived daemon.
        service, thread, codes, address = _start_daemon(
            tmp_path / "store", journal_rotate_records=1
        )
        try:
            with ServiceClient(address) as client:
                ack = client.submit(
                    measure_spec(seed=400), wait=True, wait_timeout_s=120.0
                )
            assert ack["job"]["state"] == "ok"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                segments = service.journal._segments()
                if segments and segments[-1].name != "journal-00000000.jrn":
                    break
                time.sleep(0.05)
            segments = service.journal._segments()
            assert segments[-1].name != "journal-00000000.jrn"
            # The completed job's records were compacted away; nothing
            # is left to resume.
            assert service.journal.replay().incomplete == []
        finally:
            service.request_drain()
            thread.join(timeout=60.0)
        assert codes == [0]


class TestDrainExitCodes:
    def test_clean_drain_exits_zero(self, tmp_path):
        service, thread, codes, address = _start_daemon(
            tmp_path / "store"
        )
        with ServiceClient(address) as client:
            response = client.drain()
        assert response["ok"] is True
        thread.join(timeout=60.0)
        assert codes == [0]
        assert service.queue.draining

    def test_tcp_endpoint(self, tmp_path):
        service, thread, codes, address = _start_daemon(
            tmp_path / "store", host="127.0.0.1"
        )
        try:
            assert isinstance(address, tuple)
            with ServiceClient(address) as client:
                assert client.ping()
        finally:
            service.request_drain()
            thread.join(timeout=60.0)
        assert codes == [0]
