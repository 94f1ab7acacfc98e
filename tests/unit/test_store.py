"""Tests for repro.store: keys, serialization, the on-disk store."""

import io
import json

import numpy as np
import pytest

from repro.core.bist import BISTResult
from repro.core.normalization import NormalizationResult
from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError
from repro.experiments.matlab_sim import MatlabSimConfig, MatlabSimulation
from repro.signals.random import spawn_rngs
from repro.store import (
    SCHEMA_VERSION,
    ResultStore,
    canonical_json,
    digest,
    fingerprint,
    measurement_key,
    seed_fingerprint,
)
from repro.store.locks import LockTimeout, file_lock
from repro.store.serialize import (
    META_MEMBER,
    encode_meta,
    payload_from_result,
    result_from_payload,
)
from repro.store.store import _seal


def _sim(**overrides):
    kwargs = dict(n_samples=20_000, nperseg=1000)
    kwargs.update(overrides)
    return MatlabSimulation(MatlabSimConfig(**kwargs))


def _result(seed=7, **overrides) -> BISTResult:
    sim = _sim(**overrides)
    estimator = sim.make_estimator()
    return estimator.measure(sim.bitstream, rng=seed)


def assert_results_identical(a: BISTResult, b: BISTResult) -> None:
    """Field-by-field bit identity (dataclass == chokes on arrays)."""
    for name in (
        "y",
        "noise_factor",
        "noise_figure_db",
        "noise_temperature_k",
        "band_power_hot",
        "band_power_cold",
        "t_hot_k",
        "t_cold_k",
    ):
        assert getattr(a, name) == getattr(b, name), name
    na, nb = a.normalization, b.normalization
    for name in (
        "line_frequency_hot_hz",
        "line_frequency_cold_hz",
        "line_power_hot",
        "line_power_cold",
        "scale_hot",
        "scale_cold",
    ):
        assert getattr(na, name) == getattr(nb, name), name
    for spec_a, spec_b in ((na.hot, nb.hot), (na.cold, nb.cold)):
        assert np.array_equal(spec_a.frequencies, spec_b.frequencies)
        assert np.array_equal(spec_a.psd, spec_b.psd)
        assert spec_a.enbw_hz == spec_b.enbw_hz


class TestFingerprint:
    def test_scalars_pass_through(self):
        assert fingerprint(3) == 3
        assert fingerprint(0.25) == 0.25
        assert fingerprint("hot") == "hot"
        assert fingerprint(None) is None
        assert fingerprint(True) is True

    def test_numpy_scalars_normalize(self):
        assert fingerprint(np.float64(0.5)) == 0.5
        assert fingerprint(np.int32(5)) == 5

    def test_non_finite_floats_survive_canonical_json(self):
        canonical_json(fingerprint(float("inf")))
        canonical_json(fingerprint(float("nan")))

    def test_arrays_hash_content(self):
        a = fingerprint(np.arange(8.0))
        b = fingerprint(np.arange(8.0))
        c = fingerprint(np.arange(8.0) + 1e-12)
        assert a == b
        assert a != c

    def test_objects_use_public_attrs_only(self):
        sim_a, sim_b = _sim(), _sim()
        sim_b.reference_waveform()  # populate a private cache
        assert fingerprint(sim_a) == fingerprint(sim_b)

    def test_bench_fingerprint_sees_nested_config(self):
        from repro.digitizer.comparator import Comparator
        from repro.digitizer.digitizer import OneBitDigitizer

        ideal = fingerprint(OneBitDigitizer())
        offset = fingerprint(
            OneBitDigitizer(comparator=Comparator(offset_v=0.01))
        )
        assert ideal != offset

    def test_unfingerprintable_rejected(self):
        with pytest.raises(ConfigurationError):
            fingerprint(lambda: None)

    def test_canonical_json_is_stable(self):
        data = fingerprint({"b": 1, "a": [2.5, "x"]})
        assert canonical_json(data) == canonical_json(
            json.loads(canonical_json(data))
        )
        assert digest(data) == digest(json.loads(canonical_json(data)))


class TestSeedFingerprint:
    def test_none_is_uncacheable(self):
        assert seed_fingerprint(None) is None

    def test_int_seed_is_stable(self):
        assert seed_fingerprint(7) == seed_fingerprint(7)
        assert seed_fingerprint(7) != seed_fingerprint(8)

    def test_generator_matches_its_int_seed(self):
        assert seed_fingerprint(np.random.default_rng(7)) == seed_fingerprint(7)

    def test_consumed_generator_differs(self):
        gen = np.random.default_rng(7)
        fresh = seed_fingerprint(7)
        gen.standard_normal(4)
        assert seed_fingerprint(gen) != fresh

    def test_spawned_generator_differs(self):
        # Spawning consumes lineage (children already handed out), so a
        # generator that spawned differs from a fresh one even though
        # its own draw state is untouched.
        gen = np.random.default_rng(7)
        fresh = seed_fingerprint(7)
        spawn_rngs(gen, 2)
        assert seed_fingerprint(gen) != fresh

    def test_spawn_children_are_distinct(self):
        a, b = spawn_rngs(7, 2)
        assert seed_fingerprint(a) != seed_fingerprint(b)


class TestMeasurementKey:
    def test_stable_and_seed_sensitive(self):
        sim = _sim()
        est = sim.make_estimator()
        key = measurement_key(sim, est, 7)
        assert key == measurement_key(sim, est, 7)
        assert key != measurement_key(sim, est, 8)
        assert measurement_key(sim, est, None) is None

    @pytest.mark.parametrize(
        "override",
        [
            {"nperseg": 2000},
            {"n_samples": 24_000},
            {"reference_frequency_hz": 120.0},
            {"reference_ratio": 0.25},
            {"t_hot_k": 9000.0},
        ],
    )
    def test_any_config_change_changes_key(self, override):
        sim = _sim()
        base = measurement_key(sim, sim.make_estimator(), 7)
        other = _sim(**override)
        changed = measurement_key(other, other.make_estimator(), 7)
        assert base != changed

    def test_rng_mode_in_key(self):
        sim = _sim()
        est = sim.make_estimator()
        assert measurement_key(sim, est, 7) != measurement_key(
            sim, est, 7, rng_mode="philox"
        )

    def test_estimator_analysis_params_in_key(self):
        sim = _sim()
        base = sim.make_estimator()
        config = sim.make_config()
        from dataclasses import replace

        from repro.core.bist import OneBitNoiseFigureBIST

        widened = OneBitNoiseFigureBIST(
            replace(config, overlap=0.25),
            t_hot_k=base.t_hot_k,
            t_cold_k=base.t_cold_k,
        )
        assert measurement_key(sim, base, 7) != measurement_key(
            sim, widened, 7
        )


class TestResultSerialization:
    def test_round_trip_bit_identical(self):
        result = _result()
        meta, arrays = payload_from_result(result)
        back = result_from_payload(
            json.loads(json.dumps(meta)), arrays
        )
        assert_results_identical(result, back)

    def test_wrong_kind_rejected(self):
        result = _result()
        meta, arrays = payload_from_result(result)
        meta["kind"] = "something_else"
        with pytest.raises(ConfigurationError):
            result_from_payload(meta, arrays)

    def test_stale_schema_rejected(self):
        result = _result()
        meta, arrays = payload_from_result(result)
        meta["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError):
            result_from_payload(meta, arrays)

    def test_non_result_rejected(self):
        with pytest.raises(ConfigurationError):
            payload_from_result({"not": "a result"})


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        result = _result()
        key = "ab" * 32
        assert not store.has_result(key)
        assert store.get_result(key) is None
        assert store.put_result(key, result)
        assert store.has_result(key)
        assert_results_identical(store.get_result(key), result)

    def test_put_existing_key_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = "cd" * 32
        assert store.put_result(key, _result())
        assert not store.put_result(key, _result())

    def test_outcome_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        doc = {"measured": [1.5, 2.5], "limit_db": 8.0}
        key = store.outcome_key({"lot": 1})
        assert store.put_outcome(key, doc)
        assert store.get_outcome(key) == doc
        assert store.has_outcome(key)

    def test_bad_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ConfigurationError):
            store.has_result("not-a-key")
        with pytest.raises(ConfigurationError):
            store.put_result("AB" * 32, _result())  # uppercase

    def test_reopen_existing_store(self, tmp_path):
        root = tmp_path / "s"
        key = "12" * 32
        ResultStore(root).put_result(key, _result())
        store = ResultStore(root)
        assert store.schema == SCHEMA_VERSION
        assert store.has_result(key)

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "something.txt").write_text("hello")
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path)

    def test_opens_beside_a_creators_marker_temp_file(self, tmp_path):
        # Another process is inside the marker write (or crashed in it):
        # the directory holds only its store<random>.tmp file.
        root = tmp_path / "s"
        root.mkdir()
        (root / "storeab12cd.tmp").write_bytes(b"")
        store = ResultStore(root)
        assert json.loads((root / "store.json").read_text()) == {
            "schema": SCHEMA_VERSION
        }
        key = "12" * 32
        store.put_result(key, _result())
        assert ResultStore(root).has_result(key)
        assert [e.key for e in ResultStore(root).index()] == [key]

    def test_other_temp_files_still_make_a_directory_foreign(self, tmp_path):
        (tmp_path / "results.tmp").write_bytes(b"")
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path)

    def test_index_enumerates_and_summarizes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result("11" * 32, _result())
        store.put_result("22" * 32, _result())
        index = store.index()
        assert len(index) == 2
        assert {e.kind for e in index} == {"results"}
        summary = index.summary()
        assert summary["n_entries"] == 2
        assert summary["kinds"]["results"]["n_entries"] == 2
        assert summary["total_bytes"] == index.total_bytes > 0
        assert len(index.find("11")) == 1

    def test_entry_meta_loads(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result("33" * 32, _result())
        entry = store.index().entries[0]
        meta = entry.load_meta()
        assert meta["kind"] == "bist_result"
        assert meta["schema"] == SCHEMA_VERSION

    def test_gc_removes_tmp_and_stale(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path / "s")
        store.put_result("44" * 32, _result())
        # a crashed write leaves an orphan temp file; backdate it past
        # the concurrent-writer grace period
        orphan = store.root / "results" / "44" / "junk.tmp"
        orphan.write_bytes(b"partial")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        # a stale-schema entry can never be hit again
        stale_key = "55" * 32
        store.put_result(stale_key, _result())
        stale = store._path("results", stale_key)
        import io

        import numpy as np  # noqa: F811 - local to build the payload

        from repro.store.serialize import encode_meta

        buffer = io.BytesIO()
        np.savez(
            buffer, __meta__=encode_meta({"kind": "bist_result", "schema": -1})
        )
        stale.write_bytes(buffer.getvalue())
        removed = store.gc()
        assert removed["n_removed"] == 2
        assert store.has_result("44" * 32)
        assert not store.has_result(stale_key)

    def test_schema_one_store_opens_and_its_philox_entries_go_stale(
        self, tmp_path, monkeypatch
    ):
        # Schema 2 changed how philox testbench records are drawn: a
        # philox result stored under schema 1 must miss, the schema-1
        # store must still open, and gc must reclaim the stale entry.
        import repro.store.keys as keys_module
        import repro.store.serialize as serialize_module
        import repro.store.store as store_module
        from repro.engine import MeasurementEngine
        from repro.experiments.production import _build_device_bench

        bench = _build_device_bench(8.0, 2**14)
        estimator = bench.make_estimator(nperseg=2048)
        root = tmp_path / "s"
        with monkeypatch.context() as patch:
            for module in (keys_module, serialize_module, store_module):
                patch.setattr(module, "SCHEMA_VERSION", 1)
            old = MeasurementEngine(rng_mode="philox", store=ResultStore(root))
            old_key = old.task_key(bench, estimator, 7)
            old.measure(bench, estimator, rng=7)
        store = ResultStore(root)
        assert store.schema == 1 < SCHEMA_VERSION
        engine = MeasurementEngine(rng_mode="philox", store=store)
        key = engine.task_key(bench, estimator, 7)
        assert key != old_key
        assert store.get_result(key) is None
        engine.measure(bench, estimator, rng=7)
        assert store.has_result(key) and store.has_result(old_key)
        assert store.gc()["n_removed"] == 1
        assert store.has_result(key)
        assert not store.has_result(old_key)

    def test_gc_spares_fresh_tmp_files(self, tmp_path):
        # A just-written temp file may belong to a concurrent writer
        # mid-publish; gc must leave it alone.
        store = ResultStore(tmp_path / "s")
        fresh = store.root / "results" / "ab" / "inflight.tmp"
        fresh.parent.mkdir(parents=True)
        fresh.write_bytes(b"partial")
        assert store.gc()["n_removed"] == 0
        assert fresh.exists()

    def test_gc_all(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result("66" * 32, _result())
        removed = store.gc(all_entries=True)
        assert removed["n_removed"] == 1
        assert len(store.index()) == 0

    def test_future_schema_store_refused(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root)
        (root / "store.json").write_text(
            json.dumps({"schema": SCHEMA_VERSION + 1})
        )
        with pytest.raises(ConfigurationError):
            ResultStore(root)

    def test_corrupt_marker_refused(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root)
        (root / "store.json").write_text("{}")
        with pytest.raises(ConfigurationError):
            ResultStore(root)

    def test_atomic_write_leaves_no_partial_on_error(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        path = store.root / "results" / "aa" / ("aa" * 32 + ".npz")
        with pytest.raises(RuntimeError):
            original = ResultStore._write_atomic

            def boom(p, data):
                raise RuntimeError("disk on fire")

            try:
                ResultStore._write_atomic = staticmethod(boom)
                store.put_result("aa" * 32, _result())
            finally:
                ResultStore._write_atomic = staticmethod(original)
        assert not path.exists()
        assert list(store.root.rglob("*.tmp")) == []


class TestIntegrity:
    """Sealed digests, verify-on-read, quarantine, fault injection."""

    def _put_one(self, tmp_path, key="ab" * 32):
        store = ResultStore(tmp_path / "s")
        store.put_result(key, _result())
        return store, store._path("results", key)

    def test_payloads_are_sealed(self, tmp_path):
        from repro.store.store import _SEAL_PREFIX

        _, path = self._put_one(tmp_path)
        raw = path.read_bytes()
        assert _SEAL_PREFIX in raw[-100:]
        assert raw.endswith(b"\n")

    def test_sealed_payload_round_trips(self, tmp_path):
        store, _ = self._put_one(tmp_path)
        restored = store.get_result("ab" * 32)
        assert_results_identical(restored, _result())

    def test_corrupt_entry_quarantined_on_read(self, tmp_path):
        store, path = self._put_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF  # one flipped bit in the body
        path.write_bytes(bytes(raw))
        assert store.get_result("ab" * 32) is None
        assert not path.exists()
        assert len(store.index()) == 0  # the walk no longer lists it
        [record] = store.quarantine_log
        assert record["reason"] == "integrity digest mismatch"
        assert record["key"] == "ab" * 32
        moved = store.root / "quarantine" / "results" / "ab"
        assert any(moved.iterdir())

    def test_truncated_entry_quarantined_on_read(self, tmp_path):
        store, path = self._put_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get_result("ab" * 32) is None
        assert store.quarantine_log[-1]["reason"] == "unreadable archive"

    def test_quarantine_unblocks_rewrite(self, tmp_path):
        store, path = self._put_one(tmp_path)
        path.write_bytes(b"garbage that is not an npz at all")
        assert store.get_result("ab" * 32) is None
        # The content-addressed slot is free again: a recompute can
        # persist, and the store serves it.
        assert store.put_result("ab" * 32, _result())
        assert_results_identical(store.get_result("ab" * 32), _result())

    def test_legacy_unsealed_entry_still_reads(self, tmp_path):
        store, path = self._put_one(tmp_path)
        raw = path.read_bytes()
        from repro.store.store import _SEAL_LEN

        path.write_bytes(raw[:-_SEAL_LEN])  # strip the trailer
        restored = store.get_result("ab" * 32)
        assert_results_identical(restored, _result())
        assert store.quarantine_log == []

    def test_gc_reclaims_quarantine(self, tmp_path):
        store, path = self._put_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get_result("ab" * 32) is None
        removed = store.gc()
        assert removed["n_quarantined"] == 1
        assert removed["n_removed"] == 1
        assert not any((store.root / "quarantine").rglob("*.npz"))

    def test_gc_grace_is_configurable(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        orphan = store.root / "results" / "ab" / "crashed.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"partial write from a dead process")
        # Fresh orphan survives the default grace, dies under zero.
        assert store.gc()["n_tmp"] == 0
        assert orphan.exists()
        removed = store.gc(tmp_grace_s=0.0)
        assert removed["n_tmp"] == 1
        assert not orphan.exists()

    def test_gc_bad_grace_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ConfigurationError):
            store.gc(tmp_grace_s=-1.0)

    def test_injected_store_faults_recovered_by_rewrite(self, tmp_path):
        from repro.faults import FaultPlan, inject

        store = ResultStore(tmp_path / "s")
        result = _result()
        keys = [f"{i:02d}" * 32 for i in range(8)]
        with inject(
            FaultPlan(seed=1, store_truncate=0.4, store_corrupt=0.4)
        ) as injector:
            for key in keys:
                store.put_result(key, result)
            # Rewrite-on-miss converges: each write draws at a fresh
            # write sequence, so a damaged entry is not damaged forever.
            for key in keys:
                for _ in range(20):
                    restored = store.get_result(key)
                    if restored is not None:
                        break
                    store.put_result(key, result)
                assert_results_identical(restored, result)
        assert len(injector.log) > 0
        assert len(store.quarantine_log) > 0


class TestEnumerationRaceSafety:
    """index() surfaces only fully published entries, race-free."""

    def test_inflight_tmp_files_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result("ab" * 32, _result())
        shard = store.root / "results" / "ab"
        (shard / "inflight.tmp").write_bytes(b"partial")
        (shard / ("cd" * 32 + ".npz.tmp")).write_bytes(b"partial")
        assert len(store.index()) == 1

    def test_non_canonical_names_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put_result("ab" * 32, _result())
        shard = store.root / "results" / "ab"
        (shard / ("AB" * 32 + ".npz")).write_bytes(b"junk")  # uppercase
        (shard / ("cd" * 32 + ".npz")).write_bytes(b"junk")  # wrong shard
        assert len(store.index()) == 1

    def test_entry_vanishing_mid_walk_skipped(self, tmp_path):
        import os

        store = ResultStore(tmp_path / "s")
        store.put_result("ab" * 32, _result())
        # A dangling symlink stats like a file that a peer unlinked
        # between the directory listing and the stat call.
        shard = store.root / "results" / "cd"
        shard.mkdir(parents=True, exist_ok=True)
        os.symlink(str(tmp_path / "gone.npz"), shard / ("cd" * 32 + ".npz"))
        index = store.index()  # must not raise
        assert {e.key for e in index} == {"ab" * 32}


class TestEviction:
    """Byte-budget eviction: oldest first, pins honored."""

    def _populate(self, tmp_path, n=5):
        import os

        store = ResultStore(tmp_path / "s")
        result = _result()
        keys = ["ab" + format(i, "062x") for i in range(n)]
        for i, key in enumerate(keys):
            store.put_result(key, result)
            path = store._path("results", key)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return store, keys

    def test_evicts_oldest_until_under_budget(self, tmp_path):
        store, keys = self._populate(tmp_path)
        per_entry = store.index().entries[0].nbytes
        budget = int(2.5 * per_entry)
        stats = store.evict(budget, pin_kinds=())
        assert stats["total_bytes_after"] <= budget
        assert stats["n_evicted"] == 3
        # Oldest mtimes went first.
        assert not store.has_result(keys[0])
        assert not store.has_result(keys[1])
        assert store.has_result(keys[3])
        assert store.has_result(keys[4])

    def test_outcomes_pinned_by_default(self, tmp_path):
        store, keys = self._populate(tmp_path, n=2)
        outcome_key = store.outcome_key({"lot": 1})
        store.put_outcome(outcome_key, {"manifest": [1, 2]})
        stats = store.evict(0)
        assert stats["n_pinned"] >= 1
        assert store.has_outcome(outcome_key)
        assert all(not store.has_result(k) for k in keys)

    def test_pin_keys_survive(self, tmp_path):
        store, keys = self._populate(tmp_path)
        stats = store.evict(0, pin_kinds=(), pin_keys=[keys[0]])
        assert store.has_result(keys[0])
        assert stats["n_evicted"] == len(keys) - 1

    def test_within_budget_is_noop(self, tmp_path):
        store, keys = self._populate(tmp_path)
        stats = store.evict(10**12)
        assert stats["n_evicted"] == 0
        assert all(store.has_result(k) for k in keys)

    def test_bad_budget_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ConfigurationError):
            store.evict(-1)

    def test_read_refreshes_lru_rank(self, tmp_path):
        import time

        store, keys = self._populate(tmp_path)
        store.get_result(keys[0])  # loose read bumps mtime
        per_entry = store.index().entries[0].nbytes
        store.evict(int(1.5 * per_entry), pin_kinds=())
        assert store.has_result(keys[0])  # oldest by write, hottest by read
        assert not store.has_result(keys[1])


class TestLockFree:
    """No store operation takes a lock."""

    def test_store_operations_fire_no_lock_site(self, tmp_path):
        from repro.faults import FaultPlan, inject

        store = ResultStore(tmp_path / "s")
        key = "ab" * 32
        with inject(FaultPlan(seed=1, store_lock=1.0)) as injector:
            assert store.put_result(key, _result())
            assert store.get_result(key) is not None
            assert len(store.index()) == 1
            store.evict(0, pin_kinds=())
            store.gc(all_entries=True)
            assert injector.counts().get("store_lock", 0) == 0
            # The site is live: a real lock acquisition still fires it.
            with file_lock(tmp_path / "lock"):
                pass
        assert injector.counts()["store_lock"] == 1


def _legacy_pack(members) -> bytes:
    """A shard pack as older versions wrote it: magic, u64 TOC length,
    JSON TOC, then the sealed payloads verbatim."""
    toc = {}
    blobs = []
    offset = 0
    for key, raw in sorted(members.items()):
        toc[key] = [offset, len(raw), 1_000_000.0]
        blobs.append(raw)
        offset += len(raw)
    body = json.dumps({"version": 1, "entries": toc}, sort_keys=True)
    body = body.encode("utf-8")
    return b"REPROPK1" + len(body).to_bytes(8, "little") + body + b"".join(
        blobs
    )


def _legacy_records_entry(batch) -> bytes:
    """A sealed pooled-records payload as older versions wrote it under
    ``records/<k2>/<key>.npz`` for the compat records of
    ``spawn_rngs(3, n)``."""
    provenance = [
        {"entropy": 3, "spawn_key": [i], "state": None, "rng_mode": "compat"}
        for i in range(batch.n_records)
    ]
    meta = {
        "kind": "packed_records",
        "schema": SCHEMA_VERSION,
        "n_samples": batch.n_samples,
        "sample_rate": batch.sample_rate,
        "provenance": provenance,
    }
    buffer = io.BytesIO()
    np.savez(buffer, **{META_MEMBER: encode_meta(meta)}, words=batch.words)
    return _seal(buffer.getvalue())


class TestLegacyLayout:
    """A store with an old persistent index, a shard pack and pooled
    records still opens and works; no leftover is read, written or
    removed."""

    def test_index_dir_and_pack_are_ignored(self, tmp_path):
        root = tmp_path / "s"
        packed_key = "ab" + "0" * 62
        loose_key = "ab" + "1" * 62
        store = ResultStore(root)
        store.put_result(packed_key, _result())
        sealed = store.read_payload_bytes("results", packed_key)
        store._path("results", packed_key).unlink()
        pack = root / "results" / "ab" / "pack-0123456789abcdef.pk"
        pack.write_bytes(_legacy_pack({packed_key: sealed}))
        index_dir = root / "index"
        index_dir.mkdir()
        (index_dir / "seg-00000000.idx").write_bytes(b"REPROIDX" + bytes(72))
        (index_dir / "lock").write_bytes(b"")
        records_key = "ab" + "2" * 62
        batch, _ = _sim().acquire_bitstreams(["hot", "cold"], spawn_rngs(3, 2))
        records = root / "records" / "ab" / f"{records_key}.npz"
        records.parent.mkdir(parents=True)
        records.write_bytes(_legacy_records_entry(batch))
        leftovers = {
            path: path.read_bytes()
            for path in (pack, records, *index_dir.iterdir())
        }

        store = ResultStore(root)
        # The packed member reads as a miss everywhere.
        assert not store.has_result(packed_key)
        assert store.get_result(packed_key) is None
        assert store.read_payload_bytes("results", packed_key) is None
        assert len(store.index()) == 0
        # "records" is no longer a kind: nothing addresses the entry.
        with pytest.raises(ConfigurationError):
            store.read_payload_bytes("records", records_key)
        # Put, get, walk, evict and gc work as on a fresh store.
        assert store.put_result(loose_key, _result())
        assert_results_identical(store.get_result(loose_key), _result())
        assert [e.key for e in store.index()] == [loose_key]
        assert store.evict(0, pin_kinds=())["n_evicted"] == 1
        assert store.put_result(loose_key, _result())
        assert store.gc()["n_removed"] == 0
        assert store.gc(all_entries=True)["n_removed"] == 1
        assert len(store.index()) == 0
        assert store.quarantine_log == []
        # The leftovers are untouched, byte for byte.
        assert {
            path: path.read_bytes()
            for path in (pack, records, *index_dir.iterdir())
        } == leftovers


class TestFileLock:
    def test_lock_excludes_within_process(self, tmp_path):
        path = tmp_path / "lock"
        with file_lock(path):
            with pytest.raises(LockTimeout):
                with file_lock(path, timeout_s=0.05, poll_s=0.01):
                    pass  # pragma: no cover - must not be reached

    def test_lock_releases_on_exit(self, tmp_path):
        path = tmp_path / "lock"
        with file_lock(path):
            pass
        with file_lock(path, timeout_s=0.05):
            pass

    def test_store_lock_fault_delays_not_breaks(self, tmp_path):
        from repro.faults import FaultPlan, inject

        path = tmp_path / "lock"
        acquired = 0
        with inject(FaultPlan(seed=1, store_lock=1.0)) as injector:
            for _ in range(3):
                with file_lock(path):
                    acquired += 1
        assert acquired == 3  # lost the first race, won the retry
        assert sum(1 for r in injector.log if r.site == "store_lock") == 3
