"""Bucket-affine sharding of QuantileFilter across N independent shards.

A :class:`ShardedQuantileFilter` hash-partitions the key space across
``num_shards`` shard filters, each a full-geometry
:class:`~repro.core.quantile_filter.QuantileFilter` (or
:class:`~repro.core.vectorized.BatchQuantileFilter`) built with the
**same dimensions and seed**.  The partition follows the filter's own
addressing: a key's shard is its candidate bucket modulo the shard
count (:class:`ShardRouter`).  Because candidate-part interactions are
bucket-local, a bucket's entire key population always lands on one
shard, which gives the sharded composition a crisp consistency model:

* **No-overflow regime** — while the reference single filter never
  spills into its vague part, every report decision depends only on the
  key's own ``(bucket, fingerprint)`` state, so the sharded filter
  reports *exactly* the same key set, item-for-item, for any shard
  count (``tests/parallel/test_shard_equivalence.py``).
* **Contention regime** — once buckets overflow, reports may differ
  from the single filter's through sketch noise; each shard remains a
  faithful QuantileFilter over its key slice, with a private vague part.
  Sharding does not buy accuracy at equal memory: shard ``s`` receives
  only the keys of buckets congruent to ``s`` modulo the shard count,
  so it uses ``1/num_shards`` of its candidate buckets.  At 32 KiB in
  total over 1M ``internet`` items, F1 falls from 0.997 for one filter
  to 0.823 over 4 shards and 0.582 over 16.

Shard state is mergeable: all shards share hash families (same seed),
so :meth:`ShardedQuantileFilter.merged` folds them into one global
filter via :meth:`QuantileFilter.merge`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.common.hashing import _mix64_array, canonical_key, canonical_keys, mix64
from repro.common.validation import require_item_arrays
from repro.core.criteria import Criteria
from repro.core.persistence import engine_state, restore_engine
from repro.core.quantile_filter import QuantileFilter
from repro.core.shape import shape_of
from repro.core.vectorized import BatchQuantileFilter

#: Engines a shard can run.
ENGINES = ("scalar", "batch")

#: XOR constant of the candidate-bucket hash; must match
#: ``QuantileFilter.__init__`` and ``BatchQuantileFilter.__init__`` so
#: the router and the shard filters agree on every key's bucket.
_BUCKET_SEED_XOR = 0x1234_5678_9ABC_DEF0


class ShardRouter:
    """Deterministic key -> shard assignment, affine to candidate buckets.

    The router computes a key's candidate bucket with the exact same
    derivation the filters use (``mix64(canonical_key ^ bucket_seed) %
    num_buckets``) and assigns ``shard = bucket % num_shards``.  Keys
    that would ever interact inside a candidate bucket therefore always
    share a shard — including fingerprint-colliding keys.
    """

    __slots__ = ("num_shards", "num_buckets", "_bucket_seed")

    def __init__(self, num_shards: int, num_buckets: int, seed: int = 0):
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if num_buckets < 1:
            raise ParameterError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_shards = num_shards
        self.num_buckets = num_buckets
        self._bucket_seed = mix64(seed ^ _BUCKET_SEED_XOR)

    def bucket_of(self, key: Hashable) -> int:
        """Candidate bucket of ``key`` (same value the filters compute)."""
        return mix64(canonical_key(key) ^ self._bucket_seed) % self.num_buckets

    def shard_of(self, key: Hashable) -> int:
        """Owning shard of ``key``."""
        return self.bucket_of(key) % self.num_shards

    def shard_ids_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of` over an integer key array."""
        canon = canonical_keys(keys)
        buckets = _mix64_array(canon ^ np.uint64(self._bucket_seed)) % np.uint64(
            self.num_buckets
        )
        return (buckets % np.uint64(self.num_shards)).astype(np.int64)

    def split(
        self, keys: np.ndarray, values: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Partition a chunk into per-shard ``(keys, values)`` slices.

        Relative stream order is preserved inside each slice, which is
        all that matters: shards share no state, so cross-shard
        interleaving cannot affect any outcome.
        """
        shard_ids = self.shard_ids_batch(keys)
        out = []
        for shard in range(self.num_shards):
            mask = shard_ids == shard
            out.append((keys[mask], values[mask]))
        return out


class ShardedQuantileFilter:
    """N independent shard filters behind one filter-shaped façade.

    Every shard is built alike: the first resolves the shape, and the
    rest copy it (:func:`~repro.core.shape.shape_of`), so all shards
    share one geometry and seed, as routing coherence and
    :meth:`merged` require.

    Parameters
    ----------
    criteria:
        Default criteria shared by every shard.
    num_shards:
        Shard count (>= 1).
    engine:
        ``"scalar"`` (each shard inserts its slice item by item) or
        ``"batch"`` (each shard processes its slice as arrays); both
        take integer-keyed arrays through :meth:`process`.
    memory_bytes, num_buckets, vague_width, bucket_size, depth, seed:
        One shard's shape, as
        :class:`~repro.core.quantile_filter.QuantileFilter` takes it:
        ``memory_bytes`` is the budget of **each** shard.
    counter_kind:
        The scalar shards' vague counter width; batch shards always run
        float counters.
    """

    def __init__(
        self,
        criteria: Criteria,
        num_shards: int,
        *,
        engine: str = "scalar",
        memory_bytes: Optional[int] = None,
        num_buckets: Optional[int] = None,
        vague_width: Optional[int] = None,
        bucket_size: int = 6,
        depth: int = 3,
        counter_kind: str = "int32",
        seed: int = 0,
    ):
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.criteria = criteria
        self.engine = engine
        self.num_shards = num_shards
        self.seed = seed
        engine_class, options = (
            (QuantileFilter, dict(counter_kind=counter_kind))
            if engine == "scalar" else (BatchQuantileFilter, {})
        )
        first = engine_class(
            criteria, memory_bytes, num_buckets=num_buckets,
            vague_width=vague_width, bucket_size=bucket_size, depth=depth,
            seed=seed, **options,
        )
        shape = shape_of(first)
        self.shards: List = [first] + [
            engine_class(criteria, **shape) for _ in range(num_shards - 1)
        ]
        self.router = ShardRouter(num_shards, first.num_buckets, seed=seed)
        self.items_processed = 0

    # ------------------------------------------------------------------
    # the online path
    # ------------------------------------------------------------------
    def process(self, keys: np.ndarray, values: np.ndarray) -> Set:
        """Partition a whole stream and run every shard over its slice.

        Works with both engines; returns the union of reported keys.
        """
        keys = np.asarray(keys)
        values = np.asarray(values)
        require_item_arrays(keys, values)
        for shard, (sub_keys, sub_values) in zip(
            self.shards, self.router.split(keys, values)
        ):
            if sub_keys.shape[0] == 0:
                continue
            if self.engine == "batch":
                shard.process(sub_keys, sub_values)
            else:
                for key, value in zip(sub_keys.tolist(), sub_values.tolist()):
                    shard.insert(key, value)
        self.items_processed += int(keys.shape[0])
        return self.reported_keys

    def retarget(self, threshold: float) -> Criteria:
        """Broadcast a value-threshold change to every shard.

        Works on both engines (retargeting is a criteria swap, not a
        structural operation).  All shards move together, so the merge
        path's criteria-equality check keeps holding.  Returns the new
        shared criteria.
        """
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        for shard in self.shards:
            shard.retarget(threshold)
        return self.criteria

    @property
    def retargets(self) -> int:
        """Retargets applied (every broadcast touches every shard once)."""
        return self.shards[0].retargets if self.shards else 0

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def merged(self) -> QuantileFilter:
        """One global QuantileFilter equal to the merge of every shard.

        Shards are untouched; the returned filter is a fresh structure
        built by folding shard snapshots together with
        :meth:`QuantileFilter.merge` (shards share hash families, so
        their cells correspond).  Batch shards are first copied into
        scalar filters with ``counter_kind="float"`` through
        :func:`~repro.core.persistence.restore_engine`.
        """
        snapshots = [
            shard if self.engine == "scalar"
            else restore_engine(engine_state(shard), engine="scalar")
            for shard in self.shards
        ]
        template = snapshots[0]
        merged = QuantileFilter(template.criteria, **shape_of(template))
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def reported_keys(self) -> Set:
        """Union of every shard's deduplicated reported keys."""
        out: Set = set()
        for shard in self.shards:
            out |= shard.reported_keys
        return out

    @property
    def report_count(self) -> int:
        """Total reports emitted across all shards."""
        return sum(shard.report_count for shard in self.shards)

    @property
    def nbytes(self) -> int:
        """Modelled footprint: sum of the shard structures."""
        return sum(shard.nbytes for shard in self.shards)

    def shard_items(self) -> List[int]:
        """Items processed per shard (load-balance diagnostics)."""
        return [shard.items_processed for shard in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedQuantileFilter(num_shards={self.num_shards}, "
            f"engine={self.engine!r}, nbytes={self.nbytes})"
        )
