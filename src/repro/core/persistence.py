"""Checkpoint a QuantileFilter's state and restore it — in memory or on disk.

A monitor process restarting should not forget every key's accumulated
Qweight, so the filter's full state — configuration, candidate entries,
vague counters, per-key criteria overrides, instrumentation counters and
(when serialisable) the reported-key history — round-trips through one
compressed ``.npz`` file (:func:`save_filter` / :func:`load_filter`).

The same capture is useful *without* touching disk: the flight recorder
(:mod:`repro.observability.recorder`) snapshots filters at chunk
boundaries and ships the state inside incident bundles.  The in-memory
layer is therefore the primitive here:

* :func:`filter_state` / :func:`restore_filter` — scalar
  :class:`~repro.core.quantile_filter.QuantileFilter`;
* :func:`batch_filter_state` / :func:`restore_batch_filter` — the
  numpy :class:`~repro.core.vectorized.BatchQuantileFilter` engine;
* :func:`engine_state` / :func:`restore_engine` — engine-dispatching
  wrappers (the state dict carries an ``engine`` tag);
* :func:`state_to_jsonable` / :func:`state_from_jsonable` — lossless
  JSON encoding of a state dict (floats survive exactly: Python's JSON
  round-trips the shortest-repr form bit-identically);
* :func:`state_fingerprint` — canonical sha256 over a filter's state,
  the equality check deterministic replay asserts.

Restoration rebuilds the filter with the *same seed and dimensions*, so
all hash families address identical cells, then overwrites the arrays.
Two RNG streams are not checkpointed: the probabilistic-rounding RNG and
the probabilistic-replacement RNG.  Neither affects any stored estimate;
only future random tie-breaks diverge from a never-checkpointed run
(the default ``comparative`` strategy uses neither, so its replays are
bit-identical).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.common.errors import TraceFormatError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _criteria_to_dict(criteria: Criteria) -> dict:
    return {
        "delta": criteria.delta,
        "threshold": criteria.threshold,
        "epsilon": criteria.epsilon,
    }


def _criteria_from_dict(payload: dict) -> Criteria:
    return Criteria(
        delta=payload["delta"],
        threshold=payload["threshold"],
        epsilon=payload["epsilon"],
    )


def _json_safe_key(key) -> list:
    """Encode a reported key as a (type-tag, value) pair, or raise."""
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise TypeError(f"key {key!r} of type {type(key).__name__}")
    return ["int" if isinstance(key, int) else "str", key]


def _decode_key(tag: str, key):
    return key if tag == "str" else int(key)


# ----------------------------------------------------------------------
# in-memory state: scalar engine
# ----------------------------------------------------------------------
def filter_state(qf: QuantileFilter, include_history: bool = True) -> dict:
    """Capture ``qf``'s full state as ``{"meta": ..., "arrays": ...}``.

    ``include_history=True`` also stores the deduplicated reported-key
    set and the per-key criteria overrides; both require keys to be
    plain ints or strings (tuple keys raise ``TraceFormatError`` —
    capture with ``include_history=False`` in that case).
    """
    meta = {
        "version": _FORMAT_VERSION,
        "engine": "scalar",
        "criteria": _criteria_to_dict(qf.criteria),
        "num_buckets": qf.candidate.num_buckets,
        "bucket_size": qf.candidate.bucket_size,
        "fp_bits": qf.candidate.fp_bits,
        "depth": qf.vague.depth,
        "vague_width": qf.vague.width,
        "vague_backend": qf.vague.backend,
        "counter_kind": qf.vague.sketch.counters.kind,
        "strategy": qf.strategy.name,
        "seed": qf._seed,
        "items_processed": qf.items_processed,
        "report_count": qf.report_count,
        "candidate_hits": qf.candidate_hits,
        "vague_inserts": qf.vague_inserts,
        "swaps": qf.swaps,
        "candidate_reports": qf.candidate_reports,
        "vague_reports": qf.vague_reports,
        "resets": qf.resets,
        "merges": qf.merges,
        "retargets": getattr(qf, "retargets", 0),
        "items_at_last_reset": getattr(qf, "items_at_last_reset", 0),
        "track_reports": qf._track_reports,
        "has_history": bool(include_history),
    }
    if include_history:
        try:
            meta["reported_keys"] = sorted(
                (_json_safe_key(key) for key in qf.reported_keys), key=repr
            )
            meta["key_criteria"] = sorted(
                (
                    [_json_safe_key(key), _criteria_to_dict(crit)]
                    for key, crit in qf._key_criteria.items()
                ),
                key=repr,
            )
        except TypeError as exc:
            raise TraceFormatError(
                f"cannot serialise history ({exc}); "
                "capture with include_history=False"
            ) from None
    return {
        "meta": meta,
        "arrays": {
            "candidate_fps": qf.candidate._fps.copy(),
            "candidate_qws": qf.candidate._qws.copy(),
            "vague_counters": np.array(qf.vague.sketch.counters.data),
        },
    }


def restore_filter(state: dict) -> QuantileFilter:
    """Rebuild a scalar filter from a :func:`filter_state` capture."""
    meta = state["meta"]
    arrays = state["arrays"]
    if meta.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported checkpoint version {meta.get('version')!r}"
        )
    qf = QuantileFilter(
        _criteria_from_dict(meta["criteria"]),
        num_buckets=meta["num_buckets"],
        bucket_size=meta["bucket_size"],
        fp_bits=meta["fp_bits"],
        depth=meta["depth"],
        vague_width=meta["vague_width"],
        vague_backend=meta["vague_backend"],
        counter_kind=meta["counter_kind"],
        strategy=meta["strategy"],
        seed=meta["seed"],
        track_reports=meta["track_reports"],
    )
    qf.candidate._fps[...] = arrays["candidate_fps"]
    qf.candidate._qws[...] = arrays["candidate_qws"]
    qf.vague.sketch.counters.data[...] = arrays["vague_counters"]
    if meta["vague_backend"] == "cmm":
        # Rebuild the row totals the correction uses.
        qf.vague.sketch._row_totals = [
            float(row.sum()) for row in arrays["vague_counters"]
        ]
    qf.items_processed = meta["items_processed"]
    qf.report_count = meta["report_count"]
    qf.candidate_hits = meta["candidate_hits"]
    qf.vague_inserts = meta["vague_inserts"]
    qf.swaps = meta["swaps"]
    # Telemetry counters; .get() keeps pre-observability checkpoints loadable.
    qf.candidate_reports = meta.get("candidate_reports", 0)
    qf.vague_reports = meta.get("vague_reports", 0)
    qf.resets = meta.get("resets", 0)
    qf.merges = meta.get("merges", 0)
    qf.retargets = meta.get("retargets", 0)
    qf.items_at_last_reset = meta.get("items_at_last_reset", 0)
    if meta.get("has_history"):
        qf.reported_keys = {
            _decode_key(tag, key)
            for tag, key in meta.get("reported_keys", [])
        }
        for encoded_key, crit in meta.get("key_criteria", []):
            tag, key = encoded_key
            qf._key_criteria[_decode_key(tag, key)] = (
                _criteria_from_dict(crit)
            )
    return qf


# ----------------------------------------------------------------------
# in-memory state: batch engine
# ----------------------------------------------------------------------
def batch_filter_state(bf) -> dict:
    """Capture a :class:`~repro.core.vectorized.BatchQuantileFilter`.

    Same shape as :func:`filter_state`; the batch engine's vague
    counters are Python-float rows, stored as one float64 plane.
    """
    meta = {
        "version": _FORMAT_VERSION,
        "engine": "batch",
        "criteria": _criteria_to_dict(bf.criteria),
        "num_buckets": bf.num_buckets,
        "bucket_size": bf.bucket_size,
        "fp_bits": bf.fp_bits,
        "depth": bf.depth,
        "vague_width": bf.width,
        "strategy": bf.strategy.name,
        "seed": bf.seed,
        "chunk_size": bf.chunk_size,
        "items_processed": bf.items_processed,
        "report_count": bf.report_count,
        "candidate_hits": bf.candidate_hits,
        "vague_inserts": bf.vague_inserts,
        "swaps": bf.swaps,
        "candidate_reports": bf.candidate_reports,
        "vague_reports": bf.vague_reports,
        "retargets": bf.retargets,
        "stats_tallies": bool(bf.stats_tallies),
        "reported_keys": sorted(int(key) for key in bf.reported_keys),
    }
    return {
        "meta": meta,
        "arrays": {
            "candidate_fps": bf._cand_fps.copy(),
            "candidate_qws": bf._cand_qws.copy(),
            "vague_rows": np.array(bf._rows, dtype=np.float64),
        },
    }


def restore_batch_filter(state: dict):
    """Rebuild a batch filter from a :func:`batch_filter_state` capture."""
    from repro.core.vectorized import BatchQuantileFilter

    meta = state["meta"]
    arrays = state["arrays"]
    if meta.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported checkpoint version {meta.get('version')!r}"
        )
    bf = BatchQuantileFilter(
        _criteria_from_dict(meta["criteria"]),
        num_buckets=meta["num_buckets"],
        vague_width=meta["vague_width"],
        bucket_size=meta["bucket_size"],
        depth=meta["depth"],
        fp_bits=meta["fp_bits"],
        strategy=meta["strategy"],
        seed=meta["seed"],
        chunk_size=meta["chunk_size"],
    )
    bf._cand_fps[...] = arrays["candidate_fps"]
    bf._cand_qws[...] = arrays["candidate_qws"]
    bf._rows = [list(row) for row in arrays["vague_rows"].tolist()]
    bf.items_processed = meta["items_processed"]
    bf.report_count = meta["report_count"]
    bf.candidate_hits = meta["candidate_hits"]
    bf.vague_inserts = meta["vague_inserts"]
    bf.swaps = meta["swaps"]
    bf.candidate_reports = meta["candidate_reports"]
    bf.vague_reports = meta["vague_reports"]
    bf.retargets = meta["retargets"]
    bf.stats_tallies = meta["stats_tallies"]
    bf.reported_keys = set(meta["reported_keys"])
    return bf


# ----------------------------------------------------------------------
# engine dispatch + JSON encoding + fingerprint
# ----------------------------------------------------------------------
def engine_state(filt, include_history: bool = True) -> dict:
    """Capture any supported engine; the state carries its engine tag."""
    if isinstance(filt, QuantileFilter):
        return filter_state(filt, include_history=include_history)
    from repro.core.vectorized import BatchQuantileFilter

    if isinstance(filt, BatchQuantileFilter):
        return batch_filter_state(filt)
    raise TraceFormatError(
        f"cannot capture state of {type(filt).__name__}; expected "
        "QuantileFilter or BatchQuantileFilter"
    )


def restore_engine(state: dict):
    """Rebuild whichever engine a state dict was captured from."""
    engine = state["meta"].get("engine", "scalar")
    if engine == "scalar":
        return restore_filter(state)
    if engine == "batch":
        return restore_batch_filter(state)
    raise TraceFormatError(f"unknown engine tag {engine!r} in state")


def state_to_jsonable(state: dict) -> dict:
    """Encode a state dict as plain JSON types, losslessly.

    numpy arrays become ``{"dtype", "shape", "data"}`` with nested-list
    data; Python's float repr (used by ``json``) round-trips float64
    bit-identically, and uint64 fingerprints fit arbitrary-precision
    JSON ints.
    """
    return {
        "meta": state["meta"],
        "arrays": {
            name: {
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "data": array.tolist(),
            }
            for name, array in state["arrays"].items()
        },
    }


def state_from_jsonable(payload: dict) -> dict:
    """Inverse of :func:`state_to_jsonable`."""
    return {
        "meta": payload["meta"],
        "arrays": {
            name: np.array(
                encoded["data"], dtype=np.dtype(encoded["dtype"])
            ).reshape(encoded["shape"])
            for name, encoded in payload["arrays"].items()
        },
    }


def state_fingerprint(filt) -> str:
    """Canonical sha256 over a filter's full state.

    Two filters with equal fingerprints hold bit-identical candidate
    planes, vague counters, counters and (when serialisable) history —
    the equality deterministic replay asserts.  Falls back to
    history-free capture when keys are not JSON-encodable.
    """
    try:
        state = engine_state(filt, include_history=True)
    except TraceFormatError:
        state = engine_state(filt, include_history=False)
    canonical = json.dumps(
        state_to_jsonable(state), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# on-disk checkpoints (npz)
# ----------------------------------------------------------------------
def save_filter(
    qf: QuantileFilter, path: PathLike, include_history: bool = True
) -> None:
    """Checkpoint ``qf`` to ``path`` (compressed npz).

    ``include_history=True`` also stores the deduplicated reported-key
    set and the per-key criteria overrides; both require keys to be
    plain ints or strings (tuple keys raise ``TraceFormatError`` —
    checkpoint with ``include_history=False`` in that case).
    """
    state = filter_state(qf, include_history=include_history)
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(
            json.dumps(state["meta"]).encode("utf-8"), dtype=np.uint8
        ),
        **state["arrays"],
    )


def load_filter(path: PathLike) -> QuantileFilter:
    """Restore a filter checkpointed by :func:`save_filter`."""
    path = Path(path)
    try:
        with np.load(path) as archive:
            state = {
                "meta": json.loads(archive["meta"].tobytes().decode("utf-8")),
                "arrays": {
                    "candidate_fps": archive["candidate_fps"],
                    "candidate_qws": archive["candidate_qws"],
                    "vague_counters": archive["vague_counters"],
                },
            }
    except (KeyError, OSError, ValueError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return restore_filter(state)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{exc} in {path}") from None
