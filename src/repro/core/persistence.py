"""Checkpoint a QuantileFilter's state and restore it — in memory or on disk.

A monitor process restarting should not forget every key's accumulated
Qweight, so the filter's full state — configuration, candidate entries,
vague counters, per-key criteria overrides, instrumentation counters and
(when serialisable) the reported-key history — round-trips through one
compressed ``.npz`` file (:func:`save_filter` / :func:`load_filter`).

The same capture is useful *without* touching disk: the flight recorder
(:mod:`repro.observability.recorder`) snapshots filters at chunk
boundaries and ships the state inside incident bundles, and sharded
deployments copy batch shards into mergeable scalar filters.  The
in-memory layer is therefore the primitive here, one format for every
engine:

* :func:`engine_state` / :func:`restore_engine` — capture the scalar,
  batch or threads engine, and rebuild the captured engine or the one
  ``restore_engine(engine=...)`` names (the state dict carries an
  ``engine`` tag; its arrays are ``candidate_fps``, ``candidate_qws``
  and ``vague_counters`` whatever the engine);
* :func:`state_to_jsonable` / :func:`state_from_jsonable` — lossless
  JSON encoding of a state dict (floats survive exactly: Python's JSON
  round-trips the shortest-repr form bit-identically);
* :func:`state_fingerprint` — canonical sha256 over a filter's state,
  the equality check deterministic replay asserts.

Restoration rebuilds the filter with the *same seed and dimensions*, so
all hash families address identical cells, then overwrites the arrays.
The RNG streams are part of the state and are checkpointed too: the
``probabilistic`` strategy's swap draws (any engine) and the scalar
integer counters' probabilistic rounding (every fractional vague
increment of the default ``counter_kind="int32"`` draws from it, so it
decides future counter values).  A restored filter therefore continues
bit-identically to one that was never checkpointed.  Captures taken
before the RNG states were stored still load; their RNGs restart from
the seed.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.common.errors import TraceFormatError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.shape import shape_of

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


def _rng_state(rng) -> list:
    """A ``random.Random`` state as plain JSON types."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _set_rng_state(rng, state: list) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))


# ----------------------------------------------------------------------
# in-memory state: one format for every engine
# ----------------------------------------------------------------------
_ARRAYS = ("candidate_fps", "candidate_qws", "vague_counters")

#: Counters every engine keeps, then the ones only the scalar filter has.
_TALLIES = ("items_processed", "report_count", "candidate_hits",
            "vague_inserts", "swaps", "candidate_reports", "vague_reports",
            "retargets")
_SCALAR_TALLIES = ("resets", "merges", "items_at_last_reset")


def _parts(filt) -> tuple:
    """A scalar or batch filter's arrays (in ``_ARRAYS`` order) and the
    RNG streams that decide what it does next, by their capture names."""
    rngs = {"strategy_rng": getattr(filt.strategy, "_rng", None)}
    if isinstance(filt, QuantileFilter):
        counters = filt.vague.sketch.counters
        rngs["rounding_rng"] = counters._rng
        arrays = (filt.candidate._fps, filt.candidate._qws, counters.data)
    else:
        arrays = (filt._cand_fps, filt._cand_qws, filt._rows)
    return arrays, {name: rng for name, rng in rngs.items() if rng is not None}


def engine_state(filt, include_history: bool = True) -> dict:
    """Capture an engine's full state as ``{"meta": ..., "arrays": ...}``.

    Takes a scalar :class:`~repro.core.quantile_filter.QuantileFilter`
    or a :class:`~repro.core.vectorized.BatchQuantileFilter`.  The
    threads engine (:class:`~repro.parallel.concurrent.
    ConcurrentQuantileFilter`) is a batch filter, captured under its
    commit lock.

    ``include_history=True`` also stores the deduplicated reported-key
    set and the scalar filter's per-key criteria overrides; both require
    keys to be plain ints or strings (tuple keys raise
    ``TraceFormatError`` — capture with ``include_history=False`` in
    that case).
    """
    from repro.core.vectorized import BatchQuantileFilter

    if not isinstance(filt, (QuantileFilter, BatchQuantileFilter)):
        raise TraceFormatError(
            f"cannot capture state of {type(filt).__name__}; expected "
            "QuantileFilter or BatchQuantileFilter"
        )
    with getattr(filt, "_lock", nullcontext()):
        return _capture(filt, include_history)


def _capture(filt, include_history: bool) -> dict:
    scalar = isinstance(filt, QuantileFilter)
    arrays, rngs = _parts(filt)
    meta = {
        "version": _FORMAT_VERSION,
        "engine": "scalar" if scalar else "batch",
        "criteria": _criteria_to_dict(filt.criteria),
        "has_history": bool(include_history),
        **shape_of(filt),
    }
    for name in _TALLIES + (_SCALAR_TALLIES if scalar else ()):
        meta[name] = getattr(filt, name)
    for name, rng in rngs.items():
        meta[name] = _rng_state(rng)
    if scalar:
        meta["track_reports"] = filt._track_reports
    else:
        meta.update(
            vague_backend="cs", counter_kind="float",
            chunk_size=filt.chunk_size,
            stats_tallies=bool(filt.stats_tallies),
        )
    if include_history:
        try:
            meta["reported_keys"] = sorted(
                (_json_safe_key(key) for key in filt.reported_keys), key=repr
            )
            if scalar:
                meta["key_criteria"] = sorted(
                    (
                        [_json_safe_key(key), _criteria_to_dict(crit)]
                        for key, crit in filt._key_criteria.items()
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
        "arrays": {name: np.array(a) for name, a in zip(_ARRAYS, arrays)},
    }


def restore_engine(state: dict, engine: Optional[str] = None):
    """Rebuild the engine ``state`` was captured from, or ``engine``.

    ``engine="scalar"`` turns a batch capture into a scalar filter with
    ``counter_kind="float"`` that continues exactly as the batch filter
    would.  ``engine="batch"`` raises ``TraceFormatError`` for a capture
    the batch engine cannot run: integer counters, a ``cms``/``cmm``
    vague backend or per-key criteria.
    """
    from repro.core.vectorized import DEFAULT_CHUNK_SIZE, BatchQuantileFilter

    meta = state["meta"]
    if meta.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported checkpoint version {meta.get('version')!r}"
        )
    engine = engine or meta.get("engine", "scalar")
    criteria = _criteria_from_dict(meta["criteria"])
    # The shape every engine's capture holds (repro.core.shape.shape_of).
    shape = {
        name: meta[name]
        for name in ("num_buckets", "vague_width", "bucket_size", "depth",
                     "fp_bits", "strategy", "seed")
    }
    if engine == "scalar":
        filt = QuantileFilter(
            criteria, vague_backend=meta["vague_backend"],
            counter_kind=meta["counter_kind"],
            track_reports=meta.get("track_reports", True), **shape,
        )
    elif engine == "batch":
        if (meta["counter_kind"], meta["vague_backend"]) != ("float", "cs") \
                or meta.get("key_criteria"):
            raise TraceFormatError(
                "the batch engine runs float counters over vague_backend="
                "'cs' with no per-key criteria; this capture has counter_kind="
                f"{meta['counter_kind']!r}, vague_backend="
                f"{meta['vague_backend']!r} and "
                f"{len(meta.get('key_criteria', []))} per-key criteria"
            )
        filt = BatchQuantileFilter(
            criteria, chunk_size=meta.get("chunk_size", DEFAULT_CHUNK_SIZE),
            **shape,
        )
        filt.stats_tallies = meta.get("stats_tallies", False)
    else:
        raise TraceFormatError(f"unknown engine {engine!r}")
    arrays, rngs = _parts(filt)
    for array, name in zip(arrays, _ARRAYS):
        array[...] = state["arrays"][name]
    # .get(): checkpoints from before the telemetry counters still load.
    for name in _TALLIES + (_SCALAR_TALLIES if engine == "scalar" else ()):
        setattr(filt, name, meta.get(name, 0))
    # Captures from before the RNG states were stored restart them from
    # the seed.
    for name, rng in rngs.items():
        if name in meta:
            _set_rng_state(rng, meta[name])
    if meta.get("has_history"):
        filt.reported_keys = {
            _decode_key(tag, key) for tag, key in meta.get("reported_keys", [])
        }
    for (tag, key), crit in meta.get("key_criteria", []):
        filt._key_criteria[_decode_key(tag, key)] = _criteria_from_dict(crit)
    if meta["vague_backend"] == "cmm":
        # Rebuild the row totals the correction uses.
        filt.vague.sketch._row_totals = [float(row.sum()) for row in arrays[2]]
    return filt


# ----------------------------------------------------------------------
# JSON encoding + fingerprint
# ----------------------------------------------------------------------
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
    state = engine_state(qf, include_history=include_history)
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
                "arrays": {name: archive[name] for name in _ARRAYS},
            }
    except (KeyError, OSError, ValueError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return restore_engine(state)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{exc} in {path}") from None
