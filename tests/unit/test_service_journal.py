"""Tests for repro.service.journal: the write-ahead job journal.

Property-style coverage mirroring ``test_store_index.py``: torn tails,
bit flips, duplicate job ids and replay-after-rotate must all leave the
journal replayable — every record before the damage recovered, nothing
after it invented.
"""

import json
import zlib

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, inject
from repro.service.journal import (
    _FRAME,
    _HEADER_LEN,
    _MAGIC,
    DONE_STATUSES,
    JobJournal,
)
from repro.service.protocol import JobSpec


def spec(kind="measure", **params):
    return JobSpec(kind=kind, params=params)


def _journal(tmp_path) -> JobJournal:
    journal = JobJournal(tmp_path / "service", fsync=False)
    journal.initialize()
    return journal


def _segment(journal: JobJournal):
    segments = journal._segments()
    assert segments, "journal has no segments"
    return segments[-1]


class TestFormat:
    def test_initialize_writes_header(self, tmp_path):
        journal = _journal(tmp_path)
        data = _segment(journal).read_bytes()
        assert len(data) == _HEADER_LEN
        assert data[:8] == _MAGIC

    def test_empty_journal_replays_empty(self, tmp_path):
        journal = _journal(tmp_path)
        state = journal.replay()
        assert state.entries == {}
        assert state.n_records == 0
        assert state.n_skipped == 0
        assert state.n_segments == 1

    def test_records_are_framed_and_checksummed(self, tmp_path):
        journal = _journal(tmp_path)
        job = spec(seed=1)
        journal.record_accept(job.key(), job, accepted_at=1.5)
        data = _segment(journal).read_bytes()
        length, crc = _FRAME.unpack_from(data, _HEADER_LEN)
        payload = data[_HEADER_LEN + _FRAME.size :]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        record = json.loads(payload.decode("utf-8"))
        assert record["rec"] == "accept"
        assert record["key"] == job.key()

    def test_bad_done_status_rejected(self, tmp_path):
        journal = _journal(tmp_path)
        with pytest.raises(ConfigurationError):
            journal.record_done("ab" * 32, "exploded")


class TestReplay:
    def test_accept_round_trips_spec(self, tmp_path):
        journal = _journal(tmp_path)
        job = JobSpec(
            kind="lot",
            params={"n_devices": 4, "seed": 7},
            deadline_s=30.0,
        )
        journal.record_accept(job.key(), job, accepted_at=2.0)
        state = journal.replay()
        entry = state.entries[job.key()]
        assert entry.incomplete
        assert entry.spec == job
        assert entry.accepted_at == 2.0
        assert [e.key for e in state.incomplete] == [job.key()]

    def test_done_completes_entry_last_state_wins(self, tmp_path):
        journal = _journal(tmp_path)
        job = spec(seed=2)
        journal.record_accept(job.key(), job, accepted_at=0.0)
        journal.record_done(job.key(), "ok", result={"nf_db": 6.5})
        state = journal.replay()
        entry = state.entries[job.key()]
        assert not entry.incomplete
        assert entry.status == "ok"
        assert entry.result == {"nf_db": 6.5}
        assert state.incomplete == []

    @pytest.mark.parametrize("status", DONE_STATUSES)
    def test_every_done_status_is_terminal(self, tmp_path, status):
        journal = _journal(tmp_path)
        job = spec(seed=3)
        journal.record_accept(job.key(), job, accepted_at=0.0)
        journal.record_done(job.key(), status, error="boom")
        entry = journal.replay().entries[job.key()]
        assert entry.status == status
        assert not entry.incomplete

    def test_duplicate_accepts_idempotent(self, tmp_path):
        # A crash between append and ack makes the client resubmit the
        # same key; the journal must not double-count it.
        journal = _journal(tmp_path)
        job = spec(seed=4)
        journal.record_accept(job.key(), job, accepted_at=1.0)
        journal.record_accept(job.key(), job, accepted_at=9.0)
        state = journal.replay()
        assert len(state.entries) == 1
        assert state.entries[job.key()].accepted_at == 1.0
        assert state.n_records == 2

    def test_reaccept_after_terminal_is_incomplete_again(self, tmp_path):
        # The queue re-admits a key whose prior job finished
        # failed/deadline/dropped, and the daemon journals (and acks) a
        # fresh accept.  A crash before the rerun finishes must replay
        # the key as incomplete — the acknowledged job may not be lost
        # behind the stale terminal record.
        journal = _journal(tmp_path)
        job = spec(seed=5)
        journal.record_accept(job.key(), job, accepted_at=1.0)
        journal.record_done(job.key(), "failed", error="boom")
        journal.record_accept(job.key(), job, accepted_at=7.0)
        state = journal.replay()
        entry = state.entries[job.key()]
        assert entry.incomplete
        assert entry.accepted_at == 7.0
        assert entry.result is None
        assert entry.error == ""
        assert [e.key for e in state.incomplete] == [job.key()]

    def test_reaccept_then_done_is_terminal_again(self, tmp_path):
        # Full accept -> done -> accept -> done cycle: last state wins
        # at every step.
        journal = _journal(tmp_path)
        job = spec(seed=6)
        journal.record_accept(job.key(), job, accepted_at=0.0)
        journal.record_done(job.key(), "deadline", error="too slow")
        journal.record_accept(job.key(), job, accepted_at=3.0)
        journal.record_done(job.key(), "ok", result={"nf_db": 7.0})
        state = journal.replay()
        entry = state.entries[job.key()]
        assert not entry.incomplete
        assert entry.status == "ok"
        assert entry.result == {"nf_db": 7.0}
        assert state.incomplete == []

    def test_done_without_accept_skipped(self, tmp_path):
        journal = _journal(tmp_path)
        journal.record_done("ab" * 32, "ok")
        state = journal.replay()
        assert state.entries == {}
        assert state.n_skipped == 1

    def test_many_jobs_interleaved(self, tmp_path):
        journal = _journal(tmp_path)
        jobs = [spec(seed=i) for i in range(8)]
        for job in jobs:
            journal.record_accept(job.key(), job, accepted_at=0.0)
        for job in jobs[::2]:
            journal.record_done(job.key(), "ok")
        state = journal.replay()
        incomplete = {e.key for e in state.incomplete}
        assert incomplete == {j.key() for j in jobs[1::2]}


class TestCorruption:
    def test_torn_tail_recovers_prefix(self, tmp_path):
        journal = _journal(tmp_path)
        good = spec(seed=10)
        journal.record_accept(good.key(), good, accepted_at=0.0)
        path = _segment(journal)
        intact = path.read_bytes()
        # Simulate a SIGKILL mid-append: half a frame lands on disk.
        torn = _FRAME.pack(999, 0) + b"partial"
        path.write_bytes(intact + torn[: len(torn) // 2])
        state = journal.replay()
        assert good.key() in state.entries
        assert state.n_skipped == 1

    def test_torn_tail_healed_by_next_append(self, tmp_path):
        journal = _journal(tmp_path)
        good = spec(seed=11)
        journal.record_accept(good.key(), good, accepted_at=0.0)
        path = _segment(journal)
        path.write_bytes(path.read_bytes() + b"\x07\x00")
        journal._tail = None  # the cache never saw the tear
        fresh = spec(seed=12)
        journal.record_accept(fresh.key(), fresh, accepted_at=1.0)
        state = journal.replay()
        assert set(state.entries) == {good.key(), fresh.key()}
        assert state.n_skipped == 0  # the append truncated the tear away

    def test_bit_flip_drops_record(self, tmp_path):
        journal = _journal(tmp_path)
        first, second = spec(seed=13), spec(seed=14)
        journal.record_accept(first.key(), first, accepted_at=0.0)
        journal.record_accept(second.key(), second, accepted_at=1.0)
        path = _segment(journal)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the *second* record.
        length, _ = _FRAME.unpack_from(data, _HEADER_LEN)
        target = _HEADER_LEN + _FRAME.size + length + _FRAME.size + 4
        data[target] ^= 0x40
        path.write_bytes(bytes(data))
        state = journal.replay()
        assert first.key() in state.entries
        assert second.key() not in state.entries
        assert state.n_skipped == 1

    def test_bit_flip_stops_replay_conservatively(self, tmp_path):
        # Damage in the middle means nothing after it is trusted.
        journal = _journal(tmp_path)
        jobs = [spec(seed=i) for i in (20, 21, 22)]
        for job in jobs:
            journal.record_accept(job.key(), job, accepted_at=0.0)
        path = _segment(journal)
        data = bytearray(path.read_bytes())
        length, _ = _FRAME.unpack_from(data, _HEADER_LEN)
        data[_HEADER_LEN + _FRAME.size + 2] ^= 0x01  # first record
        path.write_bytes(bytes(data))
        state = journal.replay()
        assert state.entries == {}
        assert state.n_skipped == 1

    def test_bad_header_yields_empty_replay(self, tmp_path):
        journal = _journal(tmp_path)
        path = _segment(journal)
        path.write_bytes(b"NOTAJRNL" + path.read_bytes()[8:])
        state = journal.replay()
        assert state.entries == {}
        assert state.n_skipped == 1

    def test_injected_torn_write_never_acknowledged(self, tmp_path):
        # The journal_torn_write fault site cuts the append mid-frame;
        # the record must vanish on replay (it was never acked) and the
        # next clean append must heal the file.
        journal = _journal(tmp_path)
        lost = spec(seed=30)
        with inject(FaultPlan(journal_torn_write=1.0)) as injector:
            journal.record_accept(lost.key(), lost, accepted_at=0.0)
        assert injector.counts().get("journal_torn_write") == 1
        state = journal.replay()
        assert lost.key() not in state.entries
        assert state.n_skipped == 1
        kept = spec(seed=31)
        journal.record_accept(kept.key(), kept, accepted_at=1.0)
        state = journal.replay()
        assert set(state.entries) == {kept.key()}
        assert state.n_skipped == 0


class TestRotate:
    def test_rotate_drops_completed_keeps_incomplete(self, tmp_path):
        journal = _journal(tmp_path)
        done, live = spec(seed=40), spec(seed=41)
        journal.record_accept(done.key(), done, accepted_at=0.0)
        journal.record_accept(live.key(), live, accepted_at=1.0)
        journal.record_done(done.key(), "ok", result={"x": 1})
        removed = journal.rotate()
        assert removed == 1
        segments = journal._segments()
        assert len(segments) == 1
        assert segments[0].name == "journal-00000001.jrn"
        state = journal.replay()
        assert set(state.entries) == {live.key()}
        assert state.entries[live.key()].incomplete
        assert state.entries[live.key()].accepted_at == 1.0

    def test_replay_after_rotate_accepts_new_jobs(self, tmp_path):
        journal = _journal(tmp_path)
        live = spec(seed=42)
        journal.record_accept(live.key(), live, accepted_at=0.0)
        journal.rotate()
        fresh = spec(seed=43)
        journal.record_accept(fresh.key(), fresh, accepted_at=2.0)
        journal.record_done(live.key(), "ok")
        state = journal.replay()
        assert [e.key for e in state.incomplete] == [fresh.key()]
        assert len(journal._segments()) == 1

    def test_rotate_of_empty_journal(self, tmp_path):
        journal = _journal(tmp_path)
        assert journal.rotate() == 1  # the empty first segment
        assert journal.replay().entries == {}

    def test_rotate_of_missing_journal_is_noop(self, tmp_path):
        journal = JobJournal(tmp_path / "never-made", fsync=False)
        assert journal.rotate() == 0

    def test_stats_counts(self, tmp_path):
        journal = _journal(tmp_path)
        job = spec(seed=50)
        journal.record_accept(job.key(), job, accepted_at=0.0)
        journal.record_done(job.key(), "failed", error="boom")
        stats = journal.stats()
        assert stats["segments"] == 1
        assert stats["records"] == 2
        assert stats["jobs"] == 1
        assert stats["incomplete"] == 0
        assert stats["bytes"] > _HEADER_LEN
