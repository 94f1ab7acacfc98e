"""Bit-exact (de)serialization of measurement results.

The store's contract is that a cache hit equals a recompute *bit for
bit*, so the serialized form must round-trip every value exactly:

* arrays (the normalized hot/cold spectra) travel as raw ``.npy``
  members of an ``.npz`` archive — lossless by construction;
* scalars travel in a JSON header embedded in the same archive —
  Python's JSON encoder emits the shortest repr that round-trips a
  double, so finite float scalars are lossless too;
* every payload carries its kind and schema version, and deserializers
  refuse payloads from another schema instead of guessing.

One ``.npz`` per entry keeps the store's atomic-write story trivial
(one ``os.replace`` per entry) and the layout shardable — an entry is
self-describing and can be copied between stores byte for byte.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

import numpy as np

from repro.core.bist import BISTResult
from repro.core.normalization import NormalizationResult
from repro.dsp.spectrum import Spectrum
from repro.errors import ConfigurationError

from repro.store.keys import SCHEMA_VERSION

__all__ = [
    "META_MEMBER",
    "payload_from_result",
    "result_from_payload",
]

#: Archive member holding the JSON header (a 0-d unicode array).
META_MEMBER = "__meta__"

#: Payload kind of a serialized result.
RESULT_KIND = "bist_result"


def _check_kind(meta: dict, expected: str) -> None:
    kind = meta.get("kind")
    if kind != expected:
        raise ConfigurationError(
            f"payload is {kind!r}, expected {expected!r}"
        )
    schema = meta.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(
            f"payload schema {schema!r} does not match code schema "
            f"{SCHEMA_VERSION} (stale entry; run gc)"
        )


# ----------------------------------------------------------------------
# BISTResult
# ----------------------------------------------------------------------
def payload_from_result(
    result: BISTResult,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Split a :class:`~repro.core.bist.BISTResult` into JSON scalars
    plus raw arrays (the four normalized-spectrum vectors)."""
    if not isinstance(result, BISTResult):
        raise ConfigurationError(
            f"can only serialize BISTResult, got {type(result).__name__}"
        )
    norm = result.normalization
    meta = {
        "kind": RESULT_KIND,
        "schema": SCHEMA_VERSION,
        "y": result.y,
        "noise_factor": result.noise_factor,
        "noise_figure_db": result.noise_figure_db,
        "noise_temperature_k": result.noise_temperature_k,
        "band_power_hot": result.band_power_hot,
        "band_power_cold": result.band_power_cold,
        "t_hot_k": result.t_hot_k,
        "t_cold_k": result.t_cold_k,
        "normalization": {
            "line_frequency_hot_hz": norm.line_frequency_hot_hz,
            "line_frequency_cold_hz": norm.line_frequency_cold_hz,
            "line_power_hot": norm.line_power_hot,
            "line_power_cold": norm.line_power_cold,
            "scale_hot": norm.scale_hot,
            "scale_cold": norm.scale_cold,
            "enbw_hot_hz": norm.hot.enbw_hz,
            "enbw_cold_hz": norm.cold.enbw_hz,
        },
    }
    arrays = {
        "hot_frequencies": norm.hot.frequencies,
        "hot_psd": norm.hot.psd,
        "cold_frequencies": norm.cold.frequencies,
        "cold_psd": norm.cold.psd,
    }
    return meta, arrays


def result_from_payload(
    meta: dict, arrays: Dict[str, np.ndarray]
) -> BISTResult:
    """Rebuild the exact :class:`BISTResult` a payload was made from."""
    _check_kind(meta, RESULT_KIND)
    norm_meta = meta["normalization"]
    norm = NormalizationResult(
        hot=Spectrum(
            arrays["hot_frequencies"],
            arrays["hot_psd"],
            enbw_hz=norm_meta["enbw_hot_hz"],
        ),
        cold=Spectrum(
            arrays["cold_frequencies"],
            arrays["cold_psd"],
            enbw_hz=norm_meta["enbw_cold_hz"],
        ),
        line_frequency_hot_hz=norm_meta["line_frequency_hot_hz"],
        line_frequency_cold_hz=norm_meta["line_frequency_cold_hz"],
        line_power_hot=norm_meta["line_power_hot"],
        line_power_cold=norm_meta["line_power_cold"],
        scale_hot=norm_meta["scale_hot"],
        scale_cold=norm_meta["scale_cold"],
    )
    return BISTResult(
        y=meta["y"],
        noise_factor=meta["noise_factor"],
        noise_figure_db=meta["noise_figure_db"],
        noise_temperature_k=meta["noise_temperature_k"],
        band_power_hot=meta["band_power_hot"],
        band_power_cold=meta["band_power_cold"],
        normalization=norm,
        t_hot_k=meta["t_hot_k"],
        t_cold_k=meta["t_cold_k"],
    )


# ----------------------------------------------------------------------
# Archive helpers (shared by the store)
# ----------------------------------------------------------------------
def encode_meta(meta: dict) -> np.ndarray:
    """The JSON header as a 0-d unicode array (an ``.npz`` member)."""
    return np.array(json.dumps(meta, sort_keys=True, allow_nan=False))


def decode_meta(member: np.ndarray) -> dict:
    """Parse the JSON header member back to a dict."""
    return json.loads(str(np.asarray(member)[()]))
