"""The on-disk measurement result store.

Layout (all paths relative to the store root)::

    store.json                      # {"schema": N} — created with the store
    results/<k2>/<key>.npz          # serialized BISTResults
    outcomes/<k2>/<key>.npz         # experiment-level JSON outcomes

where ``<key>`` is the 64-hex-digit content address
(:func:`repro.store.keys.measurement_key` for measurements) and
``<k2>`` its first two hex digits — a flat fan-out that keeps
directories small at production scale and makes the store trivially
shardable by key prefix.

Durability discipline: every write lands in a temporary file in the
destination directory and is published with ``os.replace`` — readers
(including concurrent processes) never observe a torn entry, and a
crash mid-write leaves only a ``*.tmp`` orphan that :meth:`ResultStore.gc`
reclaims.  Entries are content-addressed, so overwriting an existing
key is a no-op by construction (same key ⇒ same bytes) and
:meth:`ResultStore.put_result` skips the disk work entirely.  Because
publishes are atomic and idempotent, *any number of processes* may
write the same store concurrently without coordination, and no store
operation takes a lock.

Integrity discipline: every payload is *sealed* — a SHA-256 digest of
the npz bytes rides as a fixed-size trailer after the archive (zip
readers ignore trailing bytes, so the file stays a valid npz) — and
*verified on read*.  An entry that fails verification (bit rot, a torn
copy, an injected fault) is quarantined: moved aside under
``quarantine/`` — which unblocks the content-addressed rewrite — logged
on :attr:`ResultStore.quarantine_log`, and reported as a miss so the
caller transparently recomputes.  Legacy entries without a trailer
still verify through the zip container's own CRCs.

The tree is the only enumeration: :meth:`ResultStore.index` walks it,
and :meth:`ResultStore.evict` bounds the store to a byte budget,
oldest entries first, with lot manifests (``outcomes``) pinned by
default (see ``docs/STORE.md``).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import operator
import os
import pathlib
import re
import tempfile
import time
import zipfile
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.bist import BISTResult
from repro.errors import ConfigurationError
from repro.faults.injector import store_fault
from repro import obs

from repro.store import serialize
from repro.store.keys import KINDS, SCHEMA_VERSION, digest

__all__ = ["ResultStore", "StoreEntry", "StoreIndex"]

_LOG = logging.getLogger("repro.store")

_KEY_LEN = 64  # sha256 hex

_KEY_RE = re.compile(r"\A[0-9a-f]{64}\Z")
_SHARD_RE = re.compile(r"\A[0-9a-f]{2}\Z")

#: How old a temp file must be before ``gc`` treats it as a crashed
#: write — a concurrent writer finishes its publish within seconds, an
#: orphan sits forever.
TMP_GRACE_SECONDS = 600.0

#: Directory (under the store root) corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Integrity trailer sealed after every payload's npz bytes.  Zip
#: readers locate the archive by scanning backwards for the end-of-
#: central-directory record, so trailing bytes are ignored and the
#: sealed file stays a valid npz.
_SEAL_PREFIX = b"\nREPRO-SHA256:"
_SEAL_LEN = len(_SEAL_PREFIX) + 64 + 1  # prefix + hex digest + "\n"


def _seal(data: bytes) -> bytes:
    """Payload bytes with the integrity trailer appended."""
    return (
        data
        + _SEAL_PREFIX
        + hashlib.sha256(data).hexdigest().encode("ascii")
        + b"\n"
    )


def _unseal(raw: bytes):
    """``(npz bytes, failure reason)`` for sealed file bytes.

    A verified seal returns the body with ``None``; a present-but-wrong
    seal returns ``(None, reason)``.  Bytes without a trailer (legacy
    entries, truncated files) come back whole with ``None`` — the zip
    container's own structure and CRCs are the fallback check, applied
    by the reader.
    """
    if len(raw) < _SEAL_LEN or not raw.endswith(b"\n"):
        return raw, None
    trailer = raw[-_SEAL_LEN:]
    if not trailer.startswith(_SEAL_PREFIX):
        return raw, None
    body = raw[:-_SEAL_LEN]
    want = trailer[len(_SEAL_PREFIX):-1]
    got = hashlib.sha256(body).hexdigest().encode("ascii")
    if got != want:
        return None, "integrity digest mismatch"
    return body, None


def _check_key(key: str) -> str:
    if not isinstance(key, str) or _KEY_RE.fullmatch(key) is None:
        raise ConfigurationError(
            f"store keys are {_KEY_LEN}-char lowercase hex digests, got "
            f"{key!r}"
        )
    return key


@dataclass
class StoreEntry:
    """One stored artifact, as the tree walk enumerates it."""

    key: str
    kind: str
    path: pathlib.Path
    nbytes: int
    mtime: float

    def read_bytes(self) -> bytes:
        """The raw sealed payload bytes."""
        return self.path.read_bytes()

    def load_meta(self) -> dict:
        """The entry's JSON header (no array data is materialized)."""
        with np.load(self.path, allow_pickle=False) as archive:
            return serialize.decode_meta(archive[serialize.META_MEMBER])


class StoreIndex:
    """A point-in-time enumeration of a store's entries.

    Built by :meth:`ResultStore.index` from one directory walk; holds
    only paths and sizes (metadata loads lazily per entry).
    """

    def __init__(self, entries: Sequence[StoreEntry]):
        self.entries: List[StoreEntry] = sorted(
            entries, key=operator.attrgetter("kind", "key")
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[StoreEntry]:
        return iter(self.entries)

    @property
    def total_bytes(self) -> int:
        """Stored payload bytes across every entry."""
        return sum(e.nbytes for e in self.entries)

    def by_kind(self, kind: str) -> List[StoreEntry]:
        """Entries of one kind, key-sorted."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {KINDS}, got {kind!r}"
            )
        return [e for e in self.entries if e.kind == kind]

    def find(self, key_or_prefix: str) -> List[StoreEntry]:
        """Entries whose key starts with a (possibly partial) key."""
        return [
            e for e in self.entries if e.key.startswith(key_or_prefix)
        ]

    def summary(self) -> dict:
        """Machine-readable totals (the ``store info`` payload)."""
        return {
            "schema": SCHEMA_VERSION,
            "n_entries": len(self.entries),
            "total_bytes": self.total_bytes,
            "kinds": {
                kind: {
                    "n_entries": len(self.by_kind(kind)),
                    "total_bytes": sum(
                        e.nbytes for e in self.by_kind(kind)
                    ),
                }
                for kind in KINDS
            },
        }


class ResultStore:
    """Persistent, content-addressed measurement store.

    Parameters
    ----------
    root:
        Store directory; created (with its marker file) when missing.
        An existing directory is accepted only if it is empty or a
        store of the current or an older schema (older entries can
        never be hit and are gc-able); a directory holding anything
        else, or a store from a *newer* schema, is refused.  Stores
        written by older versions may hold an ``index/`` directory,
        ``<kind>/<k2>/pack-*.pk`` files and a ``records/`` tree of
        pooled record batches; none of them is read, written or
        removed, so an entry that lives only inside a pack is a miss.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = pathlib.Path(root)
        marker = self.root / "store.json"
        # List before checking for the marker, leaving out the marker's
        # own temp files: a creator publishes store.json before anything
        # else, so any other entry seen here means the marker is there
        # by the time it is checked, and a directory holding only a
        # concurrent (or crashed) creator's temp file opens as new.
        occupied = self.root.exists() and any(
            not (p.name.startswith(marker.stem) and p.suffix == ".tmp")
            for p in self.root.iterdir()
        )
        if marker.exists():
            try:
                info = json.loads(marker.read_text())
                schema = int(info["schema"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise ConfigurationError(
                    f"{marker} is not a valid store marker"
                ) from None
            if schema > SCHEMA_VERSION:
                raise ConfigurationError(
                    f"{self.root} was created by a newer schema "
                    f"({schema} > {SCHEMA_VERSION}); refusing to mix "
                    "formats"
                )
            # An older marker is fine: entries carry their own schema
            # and stale ones are gc-able.
            self.schema = schema
        elif occupied:
            raise ConfigurationError(
                f"{self.root} exists, is not empty and is not a result "
                "store (no store.json marker)"
            )
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_atomic(
                marker,
                json.dumps({"schema": SCHEMA_VERSION}, sort_keys=True).encode(),
            )
            self.schema = SCHEMA_VERSION
        #: Entries moved aside after failing verification, in order:
        #: ``{"kind", "key", "reason", "moved_to"}`` dicts.
        self.quarantine_log: List[dict] = []
        # Per-(kind, key) write counter — the fault injector keys store
        # damage on it so a post-quarantine rewrite draws independently
        # of the damaged first write.
        self._write_seqs: Dict[tuple, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, schema={self.schema})"

    # ------------------------------------------------------------------
    # Paths and atomic IO
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / key[:2] / f"{key}.npz"

    @staticmethod
    def _write_atomic(path: pathlib.Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - already published
                pass
            raise

    def _exists(self, kind: str, key: str) -> bool:
        return self._path(kind, _check_key(key)).exists()

    # ------------------------------------------------------------------
    # Payload IO
    # ------------------------------------------------------------------
    def _put_payload(
        self, kind: str, key: str, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> bool:
        """Publish one sealed payload; returns False when the key exists
        (content-addressed ⇒ identical bytes, nothing to do)."""
        path = self._path(kind, _check_key(key))
        if path.exists():
            obs.inc("store.put_existing", tags={"kind": kind})
            return False
        obs_t0 = time.monotonic() if obs.enabled() else 0.0
        buffer = io.BytesIO()
        np.savez(
            buffer,
            **{serialize.META_MEMBER: serialize.encode_meta(meta)},
            **arrays,
        )
        data = _seal(buffer.getvalue())
        seq = self._write_seqs.get((kind, key), 0)
        self._write_seqs[(kind, key)] = seq + 1
        fault = store_fault(key, seq)
        if fault == "truncate":
            # As a crash that beat the atomic rename would leave it.
            data = data[: max(1, len(data) // 2)]
        elif fault == "corrupt":
            damaged = bytearray(data)
            damaged[len(damaged) // 3] ^= 0xFF
            data = bytes(damaged)
        self._write_atomic(path, data)
        if obs_t0:
            obs.observe(
                "store.put_seconds", time.monotonic() - obs_t0,
                {"kind": kind},
            )
            obs.inc("store.puts", tags={"kind": kind})
            obs.inc("store.put_bytes", len(data), tags={"kind": kind})
        return True

    def _quarantine(self, path: pathlib.Path, kind: str, key: str,
                    reason: str) -> None:
        """Move a failed entry aside (unblocking its rewrite) and log it."""
        dest = self.root / QUARANTINE_DIR / kind / key[:2] / path.name
        dest.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, dest)
        except OSError:  # pragma: no cover - raced with another reader
            dest = None
        record = {
            "kind": kind,
            "key": key,
            "reason": reason,
            "moved_to": str(dest) if dest is not None else None,
        }
        self.quarantine_log.append(record)
        obs.inc("store.quarantined", tags={"kind": kind})
        obs.trace_event(
            "store.quarantine", kind=kind, key=key[:12], reason=reason
        )
        _LOG.warning(
            "quarantined store entry %s/%s: %s", kind, key[:12], reason
        )

    def _get_payload(self, kind: str, key: str):
        path = self._path(kind, _check_key(key))
        obs_t0 = time.monotonic() if obs.enabled() else 0.0
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            obs.inc("store.get_misses", tags={"kind": kind})
            return None
        body, reason = _unseal(raw)
        if reason is None:
            try:
                with np.load(io.BytesIO(body), allow_pickle=False) as archive:
                    meta = serialize.decode_meta(
                        archive[serialize.META_MEMBER]
                    )
                    arrays = {
                        name: archive[name]
                        for name in archive.files
                        if name != serialize.META_MEMBER
                    }
                # Touch the file so eviction's oldest-first order
                # approximates true LRU, not just write age.
                try:
                    os.utime(path)
                except OSError:  # pragma: no cover - raced
                    pass
                if obs_t0:
                    obs.observe(
                        "store.get_seconds",
                        time.monotonic() - obs_t0,
                        {"kind": kind},
                    )
                    obs.inc("store.get_hits", tags={"kind": kind})
                return meta, arrays
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                # Trailer-less (legacy or truncated) bytes land here:
                # a cut-short file loses the zip end record, a damaged
                # one fails the member CRCs.
                reason = "unreadable archive"
        self._quarantine(path, kind, key, reason)
        return None

    def read_payload_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """The raw *sealed* bytes of one entry, or ``None`` on a miss.
        No verification — this is the primitive bit-identity checks are
        built on."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {KINDS}, got {kind!r}"
            )
        try:
            return self._path(kind, _check_key(key)).read_bytes()
        except FileNotFoundError:
            return None

    def read_meta(self, kind: str, key: str) -> Optional[dict]:
        """One entry's verified JSON header, or ``None`` on a miss."""
        payload = self._get_payload(kind, key)
        if payload is None:
            return None
        return payload[0]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def put_result(self, key: str, result: BISTResult) -> bool:
        """Persist one measurement result; no-op on an existing key."""
        meta, arrays = serialize.payload_from_result(result)
        return self._put_payload("results", key, meta, arrays)

    def get_result(self, key: str) -> Optional[BISTResult]:
        """The stored result for a key, or ``None`` on a miss."""
        payload = self._get_payload("results", key)
        if payload is None:
            return None
        return serialize.result_from_payload(*payload)

    def has_result(self, key: str) -> bool:
        """Whether a result is stored under a key (no deserialization)."""
        return self._exists("results", key)

    # ------------------------------------------------------------------
    # Experiment-level outcomes (JSON documents)
    # ------------------------------------------------------------------
    def put_outcome(self, key: str, outcome: dict) -> bool:
        """Persist an experiment-level JSON outcome (e.g. a production
        lot manifest).  Values must be JSON-serializable; floats
        round-trip exactly."""
        meta = {
            "kind": "outcome",
            "schema": SCHEMA_VERSION,
            "outcome": outcome,
        }
        return self._put_payload("outcomes", key, meta, {})

    def get_outcome(self, key: str) -> Optional[dict]:
        """The stored outcome document, or ``None`` on a miss."""
        payload = self._get_payload("outcomes", key)
        if payload is None:
            return None
        meta, _ = payload
        if meta.get("schema") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"outcome schema {meta.get('schema')!r} does not match "
                f"code schema {SCHEMA_VERSION} (stale entry; run gc)"
            )
        return meta["outcome"]

    def has_outcome(self, key: str) -> bool:
        """Whether an outcome document is stored under a key."""
        return self._exists("outcomes", key)

    def outcome_key(self, document: dict) -> str:
        """Content address for an outcome identity document."""
        return digest({"schema": SCHEMA_VERSION, "outcome_id": document})

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def index(self) -> StoreIndex:
        """Enumerate every entry currently in the store (tree walk).

        The walk is race-safe against concurrent writers: only
        canonically named, fully published files are surfaced (a peer's
        in-flight ``*.tmp`` or a file that vanishes between listing and
        ``stat`` — quarantine, gc, eviction — is skipped, never raised).
        """
        entries: List[StoreEntry] = []
        for kind in KINDS:
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in sorted(base.glob("??/*.npz")):
                if (
                    _KEY_RE.fullmatch(path.stem) is None
                    or _SHARD_RE.fullmatch(path.parent.name) is None
                    or path.stem[:2] != path.parent.name
                ):
                    continue  # junk or an in-flight temp, not an entry
                try:
                    stat = path.stat()
                except OSError:
                    continue  # vanished mid-walk (a peer moved it)
                entries.append(
                    StoreEntry(
                        key=path.stem,
                        kind=kind,
                        path=path,
                        nbytes=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
        return StoreIndex(entries)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(
        self,
        budget_bytes: int,
        pin_kinds: Sequence[str] = ("outcomes",),
        pin_keys: Sequence[str] = (),
    ) -> dict:
        """Drop oldest entries until live payload bytes fit the budget.

        ``outcomes`` (lot manifests — the provenance spine resume and
        retest hang off) are pinned by default; ``pin_keys`` protects
        individual entries.  Eviction is cache management, not data
        loss: every evicted payload is recomputable from its
        provenance, and a later write simply re-creates it.
        """
        if budget_bytes < 0:
            raise ConfigurationError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        for kind in pin_kinds:
            if kind not in KINDS:
                raise ConfigurationError(
                    f"pin kind must be one of {KINDS}, got {kind!r}"
                )
        walk = self.index()
        total = walk.total_bytes
        stats = {
            "n_evicted": 0,
            "bytes_evicted": 0,
            "total_bytes_before": total,
            "total_bytes_after": total,
            "n_pinned": 0,
        }
        if total <= budget_bytes:
            return stats
        pinned_kinds = set(pin_kinds)
        pinned_keys = set(pin_keys)
        victims: List[StoreEntry] = []
        for entry in walk:
            if entry.kind in pinned_kinds or entry.key in pinned_keys:
                stats["n_pinned"] += 1
            else:
                victims.append(entry)
        victims.sort(key=lambda e: (e.mtime, e.kind, e.key))
        for entry in victims:
            if total <= budget_bytes:
                break
            try:
                entry.path.unlink()
            except FileNotFoundError:
                continue  # a peer evicted it first
            total -= entry.nbytes
            stats["n_evicted"] += 1
            stats["bytes_evicted"] += entry.nbytes
        stats["total_bytes_after"] = total
        if stats["n_evicted"]:
            obs.inc("store.evicted", stats["n_evicted"])
            obs.inc("store.evicted_bytes", stats["bytes_evicted"])
            obs.trace_event(
                "store.evict",
                n=stats["n_evicted"],
                bytes=stats["bytes_evicted"],
            )
        return stats

    # ------------------------------------------------------------------
    # GC
    # ------------------------------------------------------------------
    def gc(
        self,
        all_entries: bool = False,
        tmp_grace_s: float = TMP_GRACE_SECONDS,
    ) -> dict:
        """Reclaim dead storage; returns ``{"n_removed", "bytes_freed",
        "n_tmp", "n_quarantined"}``.

        Removes abandoned temporary files (crashed writes older than
        ``tmp_grace_s`` — a live writer publishes within seconds, so
        fresh temp files are left for it; pass ``0`` to sweep a store
        known to have no concurrent writers), everything under
        ``quarantine/`` (entries moved aside after failing
        verification — kept for inspection until a gc reclaims them),
        entries whose payload is unreadable or whose schema no longer
        matches the code (their keys embed the old schema version, so
        they can never be hit again), and — with ``all_entries`` —
        every entry.
        """
        if tmp_grace_s < 0:
            raise ConfigurationError(
                f"tmp_grace_s must be >= 0, got {tmp_grace_s}"
            )
        n_removed = 0
        bytes_freed = 0
        n_tmp = 0
        now = time.time()
        for tmp in self.root.rglob("*.tmp"):
            try:
                stat = tmp.stat()
                if not all_entries and now - stat.st_mtime < tmp_grace_s:
                    continue  # possibly a concurrent writer mid-publish
                bytes_freed += stat.st_size
                tmp.unlink()
            except OSError:
                continue  # the writer published or a peer swept it
            n_removed += 1
            n_tmp += 1
        n_quarantined = 0
        quarantine = self.root / QUARANTINE_DIR
        if quarantine.is_dir():
            for path in quarantine.rglob("*.npz"):
                try:
                    stat = path.stat()
                    bytes_freed += stat.st_size
                    path.unlink()
                except OSError:
                    continue
                n_removed += 1
                n_quarantined += 1
        for entry in self.index():
            if not all_entries:
                try:
                    schema = entry.load_meta().get("schema")
                except Exception:
                    schema = None  # unreadable ⇒ dead
                if schema == SCHEMA_VERSION:
                    continue
            bytes_freed += entry.nbytes
            try:
                entry.path.unlink()
            except FileNotFoundError:
                continue
            n_removed += 1
        return {
            "n_removed": n_removed,
            "bytes_freed": bytes_freed,
            "n_tmp": n_tmp,
            "n_quarantined": n_quarantined,
        }
