"""Provenance fingerprints and content-addressed cache keys.

A stored measurement is only reusable if *everything* that could change
its value is part of its address.  For the 1-bit BIST pipeline that
closure is small and explicit — the repo's reproducibility contract
(every stochastic path draws from spawn-seeded generators) means a
measurement is a pure function of:

* the bench / DUT configuration (noise densities, gains, reference,
  digitizer non-idealities, record length, simulation rate);
* the estimator's analysis parameters (nperseg / window / overlap /
  sample rate / noise band / reference handling / calibration
  temperatures);
* the seed lineage of the generator driving the acquisition
  (``SeedSequence`` entropy + spawn key, the number of children already
  spawned, and the bit-generator state — so a partially consumed
  generator never aliases a fresh one);
* the noise-synthesis mode (``rng_mode``: compat and philox draw
  different realizations from the same seed identity);
* the code schema version (bumped whenever the serialized layout or
  the measurement semantics change — old entries simply stop matching
  and become garbage-collectable).

:func:`fingerprint` reduces an object graph to a canonical JSON-able
structure, :func:`canonical_json` / :func:`digest` turn that structure
into a stable SHA-256 hex key, and :func:`measurement_key` composes the
full closure for one ``(source, estimator, rng, rng_mode)`` task.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from typing import Any, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.signals.random import GeneratorLike, make_rng

__all__ = [
    "KINDS",
    "SCHEMA_VERSION",
    "canonical_json",
    "digest",
    "fingerprint",
    "measurement_key",
    "seed_fingerprint",
]

#: Version of the key schema *and* of the on-disk payload layout.  Bump
#: on any change to fingerprinting, serialization or measurement
#: semantics; entries written under an older schema stop matching (their
#: keys embed the old version) and ``ResultStore.gc`` reclaims them.
#: Schema 2: philox testbench records are drawn by spectral synthesis.
#: Schema 3: philox testbench records are synthesized in float32.
SCHEMA_VERSION = 3

#: Entry kinds, in layout order: one top-level directory each.
KINDS = ("results", "outcomes")

#: Object-graph recursion limit — benches are a few levels deep
#: (testbench -> source -> opamp); anything deeper is a cycle or a
#: structure fingerprinting was never meant to cover.
_MAX_DEPTH = 16


def fingerprint(obj: Any, _depth: int = 0) -> Any:
    """Reduce an object graph to a canonical JSON-able structure.

    Scalars pass through (floats round-trip exactly through JSON),
    sequences and mappings recurse, numpy arrays collapse to a
    ``(dtype, shape, sha256)`` triple, dataclasses and plain objects
    contribute their class identity plus their *public* attributes
    (leading-underscore attributes are caches and scratch by repo
    convention — a rendered reference waveform must not change a
    bench's identity).  An object may override the whole traversal by
    providing a ``store_fingerprint()`` method returning a JSON-able
    value.

    Raises :class:`~repro.errors.ConfigurationError` for objects it
    cannot reduce deterministically (callables, open handles, depth
    blowups); callers that prefer "uncacheable" over an error catch it
    (see :meth:`MeasurementEngine.task_key`).
    """
    if _depth > _MAX_DEPTH:
        raise ConfigurationError(
            "object graph too deep to fingerprint (cycle?)"
        )
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return {"__float__": repr(obj)}
        return obj
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return fingerprint(obj.item(), _depth)
    if isinstance(obj, bytes):
        return {"__bytes__": hashlib.sha256(obj).hexdigest()}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "__ndarray__": [
                str(data.dtype),
                list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest(),
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [fingerprint(v, _depth + 1) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"cannot fingerprint non-string mapping key {k!r}"
                )
            out[k] = fingerprint(v, _depth + 1)
        return out
    if inspect.isroutine(obj) or inspect.ismodule(obj) or isinstance(obj, type):
        raise ConfigurationError(
            f"cannot fingerprint {obj!r}: functions, classes and modules "
            "have no stable content identity"
        )
    custom = getattr(obj, "store_fingerprint", None)
    if callable(custom):
        return {
            "__class__": _class_name(obj),
            "fingerprint": fingerprint(custom(), _depth + 1),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: fingerprint(getattr(obj, f.name), _depth + 1)
            for f in dataclasses.fields(obj)
        }
        return {"__class__": _class_name(obj), "fields": fields}
    attrs = _public_attrs(obj)
    if attrs is not None:
        return {
            "__class__": _class_name(obj),
            "attrs": {
                k: fingerprint(v, _depth + 1) for k, v in sorted(attrs.items())
            },
        }
    raise ConfigurationError(
        f"cannot fingerprint {type(obj).__name__!r} deterministically; "
        "give it a store_fingerprint() method"
    )


def _class_name(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _public_attrs(obj: Any) -> Optional[dict]:
    """Public instance attributes of a plain object (``None`` if the
    object exposes no instance state at all)."""
    attrs = {}
    state = getattr(obj, "__dict__", None)
    if state is not None:
        attrs.update(state)
    for slot_holder in type(obj).__mro__:
        for name in getattr(slot_holder, "__slots__", ()):
            if hasattr(obj, name):
                attrs.setdefault(name, getattr(obj, name))
    if not attrs and state is None:
        return None
    return {
        k: v
        for k, v in attrs.items()
        if not k.startswith("_") and not callable(v)
    }


def canonical_json(data: Any) -> str:
    """Serialize a fingerprint structure canonically.

    Sorted keys, no whitespace, no NaN — byte-identical input produces
    byte-identical output across processes and platforms, which is what
    makes the digests stable addresses.
    """
    return json.dumps(
        data,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    )


def digest(data: Any) -> str:
    """SHA-256 hex digest of a fingerprint structure."""
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


def seed_fingerprint(rng: GeneratorLike) -> Optional[dict]:
    """The cacheable identity of a seed or generator.

    Returns ``None`` for ``rng=None`` (OS entropy — the one genuinely
    unrepeatable case, so measurements keyed on it are uncacheable).
    Integer seeds and generators both reduce to the state of the
    ``numpy`` bit generator they resolve to, plus the seed-sequence
    lineage (entropy / spawn key / children already spawned): two
    generators only share a fingerprint when every stream the
    measurement will derive from them is identical.
    """
    if rng is None:
        return None
    gen = make_rng(rng)
    bit_gen = gen.bit_generator
    seq = getattr(bit_gen, "seed_seq", None)
    lineage: dict = {}
    if seq is not None:
        entropy = getattr(seq, "entropy", None)
        if isinstance(entropy, (list, tuple)):
            entropy = [int(v) for v in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        lineage = {
            "entropy": entropy,
            "spawn_key": [int(v) for v in getattr(seq, "spawn_key", ())],
            "n_children_spawned": int(
                getattr(seq, "n_children_spawned", 0)
            ),
        }
    return {
        "bit_generator": type(bit_gen).__name__,
        "state": fingerprint(bit_gen.state),
        "lineage": lineage,
    }


def measurement_key(
    source: Any,
    estimator: Any,
    rng: GeneratorLike,
    rng_mode: str = "compat",
) -> Optional[str]:
    """Content address of one two-state NF measurement.

    ``None`` when the measurement is uncacheable (no reproducible seed).
    The key covers the full provenance closure — bench, estimator
    analysis parameters and calibration temperatures, seed lineage,
    synthesis mode and schema version — and deliberately excludes
    execution knobs that are guaranteed result-invariant (backend,
    worker count): a result computed on any backend is a valid hit
    for every other.
    """
    seed = seed_fingerprint(rng)
    if seed is None:
        return None
    return digest(
        {
            "schema": SCHEMA_VERSION,
            "kind": "measurement",
            "source": fingerprint(source),
            "estimator": fingerprint(estimator),
            "seed": seed,
            "rng_mode": str(rng_mode),
        }
    )
