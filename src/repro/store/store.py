"""The on-disk measurement result store.

Layout (all paths relative to the store root)::

    store.json                      # {"schema": N} — created with the store
    results/<k2>/<key>.npz          # serialized BISTResults
    records/<k2>/<key>.npz          # serialized PackedRecordBatches
    outcomes/<k2>/<key>.npz         # experiment-level JSON outcomes
    results/<k2>/pack-<hex>.pk      # compacted shard pack (many payloads)
    index/seg-<n>.idx               # persistent append-only index

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
write the same store concurrently without coordination; only
shard-mutating maintenance (compaction, pack rewrites) takes the
per-shard lock.

Integrity discipline: every payload is *sealed* — a SHA-256 digest of
the npz bytes rides as a fixed-size trailer after the archive (zip
readers ignore trailing bytes, so the file stays a valid npz) — and
*verified on read*.  An entry that fails verification (bit rot, a torn
copy, an injected fault) is quarantined: moved aside under
``quarantine/`` — which unblocks the content-addressed rewrite — logged
on :attr:`ResultStore.quarantine_log`, and reported as a miss so the
caller transparently recomputes.  Legacy entries without a trailer
still verify through the zip container's own CRCs.

Scale discipline (see ``docs/STORE.md``): a persistent append-only
index (:mod:`repro.store.index`) makes enumeration O(changed) instead
of a tree walk; :meth:`ResultStore.compact` merges small npz payloads
into per-shard pack files *byte-for-byte unchanged*; and
:meth:`ResultStore.evict` bounds the store to a byte budget, oldest
entries first, with lot manifests (``outcomes``) pinned by default.
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
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

import numpy as np

from repro.bitstream import PackedRecordBatch
from repro.core.bist import BISTResult
from repro.errors import ConfigurationError
from repro.faults.injector import store_fault
from repro import obs

from repro.store import serialize
from repro.store.index import OP_ADD, OP_REMOVE, PersistentIndex
from repro.store.keys import KINDS, SCHEMA_VERSION, digest
from repro.store.locks import file_lock

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

#: Shard pack container: magic + u64 TOC length + JSON TOC + the
#: concatenated *sealed payload bytes*, verbatim.  Compaction never
#: re-encodes a payload, so packing preserves every payload bit and
#: the read path verifies packed members exactly like loose files.
_PACK_MAGIC = b"REPROPK1"
_PACK_HEADER_LEN = len(_PACK_MAGIC) + 8

#: Name of the per-shard lock file (compaction / pack rewrites only;
#: plain content-addressed writes are lock-free).
_SHARD_LOCK = ".lock"


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


def _read_pack_toc(path: pathlib.Path) -> Dict[str, tuple]:
    """``key -> (absolute offset, length, mtime)`` for one pack file.

    Raises ``ValueError`` on a non-pack / damaged container (callers
    treat the pack as unreadable and leave it for inspection).
    """
    with open(path, "rb") as handle:
        head = handle.read(_PACK_HEADER_LEN)
        if len(head) < _PACK_HEADER_LEN or not head.startswith(_PACK_MAGIC):
            raise ValueError(f"{path} is not a store pack")
        toc_len = int.from_bytes(head[len(_PACK_MAGIC):], "little")
        try:
            toc = json.loads(handle.read(toc_len).decode("utf-8"))
            entries = toc["entries"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            raise ValueError(f"{path} has a damaged pack TOC") from None
    data_start = _PACK_HEADER_LEN + toc_len
    out: Dict[str, tuple] = {}
    for key, (offset, length, mtime) in entries.items():
        out[str(key)] = (data_start + int(offset), int(length), float(mtime))
    return out


def _build_pack(members: Dict[str, tuple]):
    """``(file name, container bytes)`` packing ``key -> (raw, mtime)``.

    Payload bytes are concatenated verbatim in key order; the name is a
    content hash of the full container, so rewriting the same member
    set lands on the same file.
    """
    entries = {}
    blobs = []
    offset = 0
    for key in sorted(members):
        raw, mtime = members[key]
        entries[key] = [offset, len(raw), mtime]
        blobs.append(raw)
        offset += len(raw)
    toc = json.dumps(
        {"version": 1, "entries": entries}, sort_keys=True
    ).encode("utf-8")
    data = (
        _PACK_MAGIC
        + len(toc).to_bytes(8, "little")
        + toc
        + b"".join(blobs)
    )
    name = f"pack-{hashlib.sha256(data).hexdigest()[:16]}.pk"
    return name, data


class StoreEntry:
    """One stored artifact, as the index enumerates it.

    ``path`` is the entry's canonical loose location; for a payload
    living inside a shard pack, ``pack``/``offset`` name the container
    and ``nbytes`` is the member length.  ``path`` may be passed as a
    string — or omitted entirely with ``root`` given instead — and
    materializes lazily: enumerating a million entries from the
    persistent index must not pay a million path constructions up
    front.
    """

    __slots__ = (
        "key", "kind", "nbytes", "mtime", "pack", "offset", "_path", "_root"
    )

    def __init__(
        self,
        key: str,
        kind: str,
        path: Union[str, pathlib.Path, None],
        nbytes: int,
        mtime: float,
        pack: Optional[pathlib.Path] = None,
        offset: int = 0,
        root: Optional[str] = None,
    ):
        self.key = key
        self.kind = kind
        self._path = path
        self._root = root
        self.nbytes = nbytes
        self.mtime = mtime
        self.pack = pack
        self.offset = offset

    @property
    def path(self) -> pathlib.Path:
        """The canonical loose location (materialized on first use)."""
        p = self._path
        if p is None:
            p = pathlib.Path(
                f"{self._root}/{self.kind}/{self.key[:2]}/{self.key}.npz"
            )
            self._path = p
        elif not isinstance(p, pathlib.Path):
            p = pathlib.Path(p)
            self._path = p
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StoreEntry(kind={self.kind!r}, key={self.key!r}, "
            f"nbytes={self.nbytes})"
        )

    def read_bytes(self) -> bytes:
        """The raw sealed payload bytes, loose or packed."""
        if self.pack is None:
            return self.path.read_bytes()
        with open(self.pack, "rb") as handle:
            handle.seek(self.offset)
            return handle.read(self.nbytes)

    def load_meta(self) -> dict:
        """The entry's JSON header (no array data is materialized)."""
        if self.pack is None:
            with np.load(self.path, allow_pickle=False) as archive:
                return serialize.decode_meta(archive[serialize.META_MEMBER])
        body, reason = _unseal(self.read_bytes())
        if body is None:
            raise ValueError(
                f"packed entry {self.kind}/{self.key[:12]} failed "
                f"verification: {reason}"
            )
        with np.load(io.BytesIO(body), allow_pickle=False) as archive:
            return serialize.decode_meta(archive[serialize.META_MEMBER])


class StoreIndex:
    """A point-in-time enumeration of a store's entries.

    Built by :meth:`ResultStore.index` from one directory walk (or by
    :meth:`ResultStore.load_index` from the persistent index with no
    walk at all); holds only paths and sizes (metadata loads lazily per
    entry), so indexing a large store stays cheap.
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
        Store directory; created (with its marker file and an empty
        persistent index) when missing.  An existing directory is
        accepted only if it is empty or a store of the current or an
        older schema (older entries can never be hit and are gc-able);
        a directory holding anything else, or a store from a *newer*
        schema, is refused.  Stores created before the persistent index
        keep the tree walk as their only enumeration until
        :meth:`rebuild_index` (CLI ``store reindex``) runs.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = pathlib.Path(root)
        created = False
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
            created = True
        #: Entries moved aside after failing verification, in order:
        #: ``{"kind", "key", "reason", "moved_to"}`` dicts.
        self.quarantine_log: List[dict] = []
        # Per-(kind, key) write counter — the fault injector keys store
        # damage on it so a post-quarantine rewrite draws independently
        # of the damaged first write.
        self._write_seqs: Dict[tuple, int] = {}
        self._pindex = PersistentIndex(self.root / "index")
        if created:
            self._pindex.initialize()
        # Memoized "does this store maintain a persistent index" —
        # checked on every write, so it must not cost a directory scan.
        self._has_pindex: Optional[bool] = True if created else None
        # Pack TOC cache, invalidated by (size, mtime_ns) signature.
        self._pack_tocs: Dict[pathlib.Path, tuple] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, schema={self.schema})"

    # ------------------------------------------------------------------
    # Paths and atomic IO
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / key[:2] / f"{key}.npz"

    def _shard_lock(self, kind: str, shard: str) -> pathlib.Path:
        return self.root / kind / shard / _SHARD_LOCK

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

    # ------------------------------------------------------------------
    # Persistent index maintenance (advisory: failures never fail a
    # payload operation — the tree stays ground truth)
    # ------------------------------------------------------------------
    @property
    def has_persistent_index(self) -> bool:
        """Whether this store maintains a persistent index."""
        if self._has_pindex is None:
            self._has_pindex = self._pindex.exists
        return self._has_pindex

    def _index_add(self, kind: str, key: str, path: pathlib.Path) -> None:
        if not self.has_persistent_index:
            return
        try:
            stat = path.stat()
            self._pindex.append(
                OP_ADD, kind, key, stat.st_size, stat.st_mtime
            )
        except OSError as exc:  # pragma: no cover - disk-level failure
            _LOG.warning(
                "index append failed for %s/%s: %s", kind, key[:12], exc
            )

    def _index_remove(self, kind: str, key: str) -> None:
        if not self.has_persistent_index:
            return
        try:
            self._pindex.append(OP_REMOVE, kind, key, 0, 0.0)
        except OSError as exc:  # pragma: no cover - disk-level failure
            _LOG.warning(
                "index remove failed for %s/%s: %s", kind, key[:12], exc
            )

    # ------------------------------------------------------------------
    # Shard packs
    # ------------------------------------------------------------------
    def _pack_paths(self, kind: str, shard: str) -> List[pathlib.Path]:
        base = self.root / kind / shard
        if not base.is_dir():
            return []
        return sorted(base.glob("pack-*.pk"))

    def _pack_toc(self, path: pathlib.Path) -> Optional[Dict[str, tuple]]:
        """The (cached) TOC of one pack, or ``None`` if unreadable."""
        try:
            stat = path.stat()
        except OSError:
            self._pack_tocs.pop(path, None)
            return None
        signature = (stat.st_size, stat.st_mtime_ns)
        cached = self._pack_tocs.get(path)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            toc = _read_pack_toc(path)
        except (OSError, ValueError):
            _LOG.warning("unreadable pack container %s", path)
            return None
        self._pack_tocs[path] = (signature, toc)
        return toc

    def _pack_lookup(self, kind: str, key: str) -> Optional[tuple]:
        """``(pack path, offset, length, mtime)`` or ``None``."""
        for path in self._pack_paths(kind, key[:2]):
            toc = self._pack_toc(path)
            if toc is not None and key in toc:
                offset, length, mtime = toc[key]
                return path, offset, length, mtime
        return None

    def _exists(self, kind: str, key: str) -> bool:
        if self._path(kind, key).exists():
            return True
        return self._pack_lookup(kind, key) is not None

    def _remove_pack_members(
        self, pack_path: pathlib.Path, keys: Set[str]
    ) -> None:
        """Rewrite one pack without ``keys`` (unlink it when emptied)."""
        with file_lock(pack_path.parent / _SHARD_LOCK):
            self._pack_tocs.pop(pack_path, None)
            try:
                toc = _read_pack_toc(pack_path)
            except FileNotFoundError:
                return  # a peer already rewrote it
            except (OSError, ValueError):
                _LOG.warning(
                    "cannot rewrite unreadable pack %s", pack_path
                )
                return
            keep = sorted(k for k in toc if k not in keys)
            if not keep:
                try:
                    pack_path.unlink()
                except OSError:  # pragma: no cover - raced with a peer
                    pass
                return
            members: Dict[str, tuple] = {}
            with open(pack_path, "rb") as handle:
                for key in keep:
                    offset, length, mtime = toc[key]
                    handle.seek(offset)
                    members[key] = (handle.read(length), mtime)
            name, data = _build_pack(members)
            new_path = pack_path.parent / name
            self._write_atomic(new_path, data)
            if new_path != pack_path:
                try:
                    pack_path.unlink()
                except OSError:  # pragma: no cover - raced with a peer
                    pass

    # ------------------------------------------------------------------
    # Payload IO
    # ------------------------------------------------------------------
    def _put_payload(
        self, kind: str, key: str, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> bool:
        """Publish one sealed payload; returns False when the key exists
        (content-addressed ⇒ identical bytes, nothing to do)."""
        path = self._path(kind, _check_key(key))
        if self._exists(kind, key):
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
        self._index_add(kind, key, path)
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
        self._index_remove(kind, key)
        obs.inc("store.quarantined", tags={"kind": kind})
        obs.trace_event(
            "store.quarantine", kind=kind, key=key[:12], reason=reason
        )
        _LOG.warning(
            "quarantined store entry %s/%s: %s", kind, key[:12], reason
        )

    def _quarantine_packed(self, kind: str, key: str, pack: pathlib.Path,
                           raw: bytes, reason: str) -> None:
        """Copy a failed packed member aside and drop it from its pack."""
        dest = self.root / QUARANTINE_DIR / kind / key[:2] / f"{key}.npz"
        self._write_atomic(dest, raw)
        self._remove_pack_members(pack, {key})
        self.quarantine_log.append(
            {
                "kind": kind,
                "key": key,
                "reason": reason,
                "moved_to": str(dest),
            }
        )
        self._index_remove(kind, key)
        obs.inc("store.quarantined", tags={"kind": kind})
        obs.trace_event(
            "store.quarantine", kind=kind, key=key[:12], reason=reason,
            packed=True,
        )
        _LOG.warning(
            "quarantined packed store entry %s/%s: %s", kind, key[:12],
            reason,
        )

    def _get_payload(self, kind: str, key: str):
        path = self._path(kind, _check_key(key))
        packed = None
        obs_t0 = time.monotonic() if obs.enabled() else 0.0
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            packed = self._pack_lookup(kind, key)
            if packed is None:
                obs.inc("store.get_misses", tags={"kind": kind})
                return None
            pack, offset, length, _ = packed
            try:
                with open(pack, "rb") as handle:
                    handle.seek(offset)
                    raw = handle.read(length)
            except OSError:
                return None  # pack vanished under us (peer rewrite)
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
                if packed is None:
                    # Touch the loose file so eviction's oldest-first
                    # order approximates true LRU, not just write age.
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
        if packed is None:
            self._quarantine(path, kind, key, reason)
        else:
            self._quarantine_packed(kind, key, packed[0], raw, reason)
        return None

    def read_payload_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """The raw *sealed* bytes of one entry (loose or packed), or
        ``None`` on a miss.  No verification — this is the primitive
        bit-identity checks and compaction are built on."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {KINDS}, got {kind!r}"
            )
        path = self._path(kind, _check_key(key))
        try:
            return path.read_bytes()
        except FileNotFoundError:
            pass
        hit = self._pack_lookup(kind, key)
        if hit is None:
            return None
        pack, offset, length, _ = hit
        try:
            with open(pack, "rb") as handle:
                handle.seek(offset)
                return handle.read(length)
        except OSError:
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
        return self._exists("results", _check_key(key))

    # ------------------------------------------------------------------
    # Packed record batches
    # ------------------------------------------------------------------
    def put_records(self, key: str, batch: PackedRecordBatch) -> bool:
        """Persist the pooled packed records behind a measurement."""
        meta, arrays = serialize.payload_from_records(batch)
        return self._put_payload("records", key, meta, arrays)

    def get_records(self, key: str) -> Optional[PackedRecordBatch]:
        """The stored packed batch for a key, or ``None`` on a miss."""
        payload = self._get_payload("records", key)
        if payload is None:
            return None
        return serialize.records_from_payload(*payload)

    def has_records(self, key: str) -> bool:
        """Whether pooled records are stored under a key."""
        return self._exists("records", _check_key(key))

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
        return self._exists("outcomes", _check_key(key))

    def outcome_key(self, document: dict) -> str:
        """Content address for an outcome identity document."""
        return digest({"schema": SCHEMA_VERSION, "outcome_id": document})

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def index(self) -> StoreIndex:
        """Enumerate every entry currently in the store (tree walk).

        This is ground truth but O(files); prefer :meth:`load_index`
        when the persistent index is available.  The walk is race-safe
        against concurrent writers: only canonically named, fully
        published files are surfaced (a peer's in-flight ``*.tmp`` or a
        file that vanishes between listing and ``stat`` — quarantine,
        gc, eviction — is skipped, never raised).
        """
        entries: List[StoreEntry] = []
        for kind in KINDS:
            base = self.root / kind
            if not base.is_dir():
                continue
            seen: Set[str] = set()
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
                seen.add(path.stem)
                entries.append(
                    StoreEntry(
                        key=path.stem,
                        kind=kind,
                        path=path,
                        nbytes=stat.st_size,
                        mtime=stat.st_mtime,
                    )
                )
            for pack in sorted(base.glob("??/pack-*.pk")):
                toc = self._pack_toc(pack)
                if toc is None:
                    continue
                for key, (offset, length, mtime) in sorted(toc.items()):
                    if key in seen or key[:2] != pack.parent.name:
                        continue  # a loose rewrite shadows the pack
                    entries.append(
                        StoreEntry(
                            key=key,
                            kind=kind,
                            path=self._path(kind, key),
                            nbytes=length,
                            mtime=mtime,
                            pack=pack,
                            offset=offset,
                        )
                    )
        return StoreIndex(entries)

    def load_index(self) -> Optional[StoreIndex]:
        """Enumerate from the persistent index — no tree walk.

        Returns ``None`` when the store has no persistent index (legacy
        store; run :meth:`rebuild_index`).  Entries carry the canonical
        loose path; a payload that was since packed still reads through
        :meth:`read_payload_bytes` / :meth:`read_meta`, which resolve
        packs.  The persistent index is advisory: a record lost to a
        torn append means one entry missing here until a rebuild, never
        a wrong payload.
        """
        if not self.has_persistent_index:
            return None
        root = str(self.root)
        entries = [
            StoreEntry(key, kind, None, nbytes, mtime, root=root)
            for (kind, key), (nbytes, mtime) in self._pindex.replay().items()
        ]
        return StoreIndex(entries)

    def index_stats(self) -> Optional[dict]:
        """Persistent-index totals (segments, records, bytes), or
        ``None`` for a store without one."""
        if not self.has_persistent_index:
            return None
        stats = self._pindex.stats()
        stats["payload_bytes"] = self._pindex.total_bytes()
        return stats

    def rebuild_index(self) -> dict:
        """(Re)build the persistent index from a tree walk."""
        walk = self.index()
        stats = self._pindex.rebuild(
            (e.kind, e.key, e.nbytes, e.mtime) for e in walk
        )
        self._has_pindex = True
        return stats

    def rotate_index(self) -> dict:
        """Compact the persistent index log into one checkpoint."""
        return self._pindex.rotate()

    def verify_index(self) -> dict:
        """Diff the persistent index against a tree walk.

        ``consistent`` is True when both enumerate the same
        ``(kind, key, nbytes)`` set; ``missing`` lists entries the
        index lost (torn appends), ``stale`` entries it failed to
        forget.
        """
        walk = {(e.kind, e.key): e.nbytes for e in self.index()}
        if not self.has_persistent_index:
            return {
                "consistent": False,
                "reason": "no persistent index",
                "n_walk": len(walk),
                "n_index": 0,
                "missing": sorted(f"{k}/{key}" for k, key in walk),
                "stale": [],
                "mismatched": [],
            }
        live = {
            (kind, key): int(nbytes)
            for (kind, key), (nbytes, _) in self._pindex.replay().items()
        }
        missing = sorted(
            f"{kind}/{key}" for kind, key in walk.keys() - live.keys()
        )
        stale = sorted(
            f"{kind}/{key}" for kind, key in live.keys() - walk.keys()
        )
        mismatched = sorted(
            f"{kind}/{key}"
            for kind, key in walk.keys() & live.keys()
            if walk[kind, key] != live[kind, key]
        )
        return {
            "consistent": not (missing or stale or mismatched),
            "n_walk": len(walk),
            "n_index": len(live),
            "missing": missing,
            "stale": stale,
            "mismatched": mismatched,
        }

    def approx_total_bytes(self) -> int:
        """Live payload bytes, from the index when available (cheap)."""
        if self.has_persistent_index:
            return self._pindex.total_bytes()
        return self.index().total_bytes

    # ------------------------------------------------------------------
    # Compaction and eviction
    # ------------------------------------------------------------------
    def compact(
        self,
        kinds: Optional[Sequence[str]] = None,
        shards: Optional[Sequence[str]] = None,
        min_files: int = 2,
    ) -> dict:
        """Merge loose npz payloads (and older packs) into one pack per
        shard, payload bytes verbatim.

        Shards with fewer than ``min_files`` files are left alone.  The
        new pack publishes atomically *before* the merged files are
        unlinked, so a reader — or a crash — at any instant still finds
        every payload (at worst both loose and packed, with the loose
        copy shadowing).  Holds the per-shard lock; concurrent plain
        writes need no lock and keep landing as loose files that the
        next compaction sweeps.
        """
        if min_files < 2:
            raise ConfigurationError(
                f"min_files must be >= 2, got {min_files}"
            )
        for kind in kinds or ():
            if kind not in KINDS:
                raise ConfigurationError(
                    f"kind must be one of {KINDS}, got {kind!r}"
                )
        stats = {
            "n_shards_compacted": 0,
            "n_files_before": 0,
            "n_files_after": 0,
            "n_members": 0,
            "bytes_packed": 0,
        }
        with obs.timed("store.compact_seconds"):
            for kind in kinds if kinds is not None else KINDS:
                base = self.root / kind
                if not base.is_dir():
                    continue
                for shard_dir in sorted(base.iterdir()):
                    if (
                        not shard_dir.is_dir()
                        or _SHARD_RE.fullmatch(shard_dir.name) is None
                    ):
                        continue
                    if shards is not None and shard_dir.name not in shards:
                        continue
                    self._compact_shard(kind, shard_dir, min_files, stats)
        obs.inc("store.compactions")
        obs.trace_event(
            "store.compact",
            shards=stats["n_shards_compacted"],
            members=stats["n_members"],
        )
        return stats

    def _compact_shard(
        self,
        kind: str,
        shard_dir: pathlib.Path,
        min_files: int,
        stats: dict,
    ) -> None:
        with file_lock(shard_dir / _SHARD_LOCK):
            loose = sorted(
                p
                for p in shard_dir.glob("*.npz")
                if _KEY_RE.fullmatch(p.stem) is not None
            )
            packs = sorted(shard_dir.glob("pack-*.pk"))
            if len(loose) + len(packs) < min_files:
                return
            members: Dict[str, tuple] = {}
            merged_packs: List[pathlib.Path] = []
            for pack in packs:
                self._pack_tocs.pop(pack, None)
                try:
                    toc = _read_pack_toc(pack)
                except (OSError, ValueError):
                    _LOG.warning(
                        "compaction skipping unreadable pack %s", pack
                    )
                    continue
                with open(pack, "rb") as handle:
                    for key, (offset, length, mtime) in sorted(toc.items()):
                        handle.seek(offset)
                        members[key] = (handle.read(length), mtime)
                merged_packs.append(pack)
            for path in loose:
                try:
                    stat = path.stat()
                    members[path.stem] = (path.read_bytes(), stat.st_mtime)
                except OSError:
                    continue  # vanished (quarantined) under the walk
            if not members:
                return
            name, data = _build_pack(members)
            new_path = shard_dir / name
            if not new_path.exists():
                self._write_atomic(new_path, data)
            # Only after the pack is durably published do the merged
            # sources go away; a crash in this window leaves shadowed
            # duplicates, never a missing payload.
            for path in loose:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - raced with a peer
                    pass
            for pack in merged_packs:
                if pack == new_path:
                    continue
                try:
                    pack.unlink()
                except OSError:  # pragma: no cover - raced with a peer
                    pass
            stats["n_shards_compacted"] += 1
            stats["n_files_before"] += len(loose) + len(merged_packs)
            stats["n_files_after"] += 1
            stats["n_members"] += len(members)
            stats["bytes_packed"] += len(data)

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
        packed_victims: Dict[pathlib.Path, Set[str]] = {}
        for entry in victims:
            if total <= budget_bytes:
                break
            if entry.pack is None:
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    continue  # a peer evicted it first
            else:
                packed_victims.setdefault(entry.pack, set()).add(entry.key)
            self._index_remove(entry.kind, entry.key)
            total -= entry.nbytes
            stats["n_evicted"] += 1
            stats["bytes_evicted"] += entry.nbytes
        for pack, keys in packed_victims.items():
            self._remove_pack_members(pack, keys)
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
        every entry.  Packed members are removed by rewriting their
        pack.
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
        packed_dead: Dict[pathlib.Path, Set[str]] = {}
        for entry in self.index():
            if not all_entries:
                try:
                    schema = entry.load_meta().get("schema")
                except Exception:
                    schema = None  # unreadable ⇒ dead
                if schema == SCHEMA_VERSION:
                    continue
            bytes_freed += entry.nbytes
            if entry.pack is None:
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    continue
            else:
                packed_dead.setdefault(entry.pack, set()).add(entry.key)
            n_removed += 1
            if not all_entries:
                self._index_remove(entry.kind, entry.key)
        for pack, keys in packed_dead.items():
            self._remove_pack_members(pack, keys)
        if all_entries and self.has_persistent_index:
            self._pindex.rebuild([])
        return {
            "n_removed": n_removed,
            "bytes_freed": bytes_freed,
            "n_tmp": n_tmp,
            "n_quarantined": n_quarantined,
        }
