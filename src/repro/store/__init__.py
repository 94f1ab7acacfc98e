"""Persistent measurement result store with provenance-keyed caching.

The production story of the paper — screen lots, guard-band, retest —
needs measurements that outlive the process: a warm cache for repeated
sweeps, resumable plans after an interruption, and retest replans that
re-measure only the devices that need it.  This package is that
persistence layer:

:mod:`repro.store.keys`
    Content addressing: canonical fingerprints of benches, estimators
    and seed lineage, composed into SHA-256 measurement keys
    (:func:`measurement_key`).  Anything that could change a
    measurement's value is in its key; execution knobs that are
    result-invariant (backend, workers) are not.
:mod:`repro.store.serialize`
    Bit-exact payloads: results round-trip through ``.npz`` archives
    losslessly, so a cache hit *equals* a recompute.
:mod:`repro.store.store`
    :class:`ResultStore` — the atomic, shardable on-disk layout of
    sealed ``.npz`` files, the tree-walk enumeration
    :class:`StoreIndex`, byte-budget eviction and garbage collection.
    No store operation takes a lock.
:mod:`repro.store.locks`
    The advisory file lock the service journal takes whenever it
    creates, appends to or rotates its segments.

Wiring: ``MeasurementEngine(store=..., cache="readwrite")`` consults
the store in :meth:`~repro.engine.engine.MeasurementEngine.measure`,
``MeasurementPlan.run(..., resume=True)`` skips already-stored tasks,
and :func:`~repro.engine.scheduler.plan_retest` plans only the
failed / guard-band devices of a prior production outcome.
"""

from repro.store.keys import (
    KINDS,
    SCHEMA_VERSION,
    canonical_json,
    digest,
    fingerprint,
    measurement_key,
    seed_fingerprint,
)
from repro.store.store import ResultStore, StoreEntry, StoreIndex

__all__ = [
    "KINDS",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreEntry",
    "StoreIndex",
    "canonical_json",
    "digest",
    "fingerprint",
    "measurement_key",
    "seed_fingerprint",
]
