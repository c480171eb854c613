"""Numpy-accelerated batch engine for QuantileFilter.

The scalar :class:`~repro.core.quantile_filter.QuantileFilter` spends
most of its Python time computing hashes and walking Algorithm 2's
branches one item at a time.  This engine processes the stream in
chunks.  With the default ``comparative`` strategy, the compiled kernel
(``qf_kernel.c``, loaded through :mod:`repro.common.native`) does a
chunk in two C calls: ``qf_hash`` computes the fingerprints, candidate
buckets and item weights of integer keys exactly as
:meth:`BatchQuantileFilter._chunk_parts` does in numpy, and
``qf_process`` runs Algorithm 2's per-item branch over every item in
stream order, bit for bit the scalar tier below.  Other key dtypes are
hashed in numpy (``canonical_keys``) before the same loop.  When no
kernel loads here, and for the ``probabilistic`` and ``forceful``
strategies, the hashing is numpy's and every chunk splits into two
tiers instead:

* **Vectorised tier** — fingerprints, candidate buckets and item
  weights are computed for the whole chunk at once; items that resolve
  as *pure candidate hits* (their fingerprint already occupies a slot,
  and accumulating the chunk's weights cannot cross the report
  threshold) are folded into the per-slot Qweight array with
  bucket-segmented numpy sums.  This is the steady-state majority of a
  heavy-hitter stream.
* **Scalar tier** — items whose bucket sees a report crossing, a
  vacancy fill, a replacement decision or a vague-part touch within
  the chunk fall back to the exact per-item branch of Algorithm 2
  (the pre-vectorisation hot loop), applied in stream order.

The split is *exact*, not approximate: a bucket is handed to the
scalar tier from the first item that misses its candidate slots, and a
slot whose segment might cross the report threshold is replayed
item-by-item, so the engine reports the same keys item-for-item as the
scalar filter configured with ``counter_kind="float"`` and the same
seed (``tests/core/test_vectorized.py`` and
``tests/properties/test_property_batch_equivalence.py`` check exactly
that).  Numpy accumulation uses sequential ``cumsum``/ordered adds so
even the floating-point state stays bit-identical.

Semantics match the scalar filter configured with ``counter_kind=
"float"`` and the same seed: identical hash families are constructed
from identical seed derivations, so the two implementations report the
same keys item-for-item.  The throughput experiments (Fig. 8/10) use
this engine.
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

import numpy as np

from repro.common import native
from repro.common.errors import ParameterError
from repro.common.hashing import (
    FingerprintHasher,
    HashFamily,
    SignHashFamily,
    _mix64_array,
    canonical_keys,
    mix64,
)
from repro.common.validation import require_item_arrays, require_positive_int
from repro.core.criteria import Criteria
from repro.core.shape import (
    BATCH_COUNTER_BYTES,
    DEFAULT_CANDIDATE_FRACTION,
    resolve_shape,
    slot_bytes,
)
from repro.core.strategies import make_strategy
from repro.core.vague import vague_key
from repro.quantiles.base import RANK_EPS

#: Shift combining (bucket, fingerprint) into one vague-part key; must
#: match :func:`repro.core.vague.vague_key`.
_VKEY_SHIFT = np.uint64(20)

#: Default items per internal processing chunk.  Smaller than the old
#: 64 Ki default on purpose: the vectorised tier classifies buckets
#: against chunk-start state, so shorter chunks quarantine new-key
#: arrivals faster and keep the steady-state fast path hot.
DEFAULT_CHUNK_SIZE = 8_192

#: First chunk length of the geometric ramp used by :meth:`process` —
#: cold-start chunks are mostly candidate misses (scalar tier), so the
#: ramp keeps them short until the buckets are populated.
_RAMP_FIRST_CHUNK = 512

_QF_SOURCE = Path(__file__).with_name("qf_kernel.c")
#: Leading tallies of the kernel's ``out`` array: hits, vague inserts,
#: swaps, candidate reports, vague reports.
_TALLIES = 5


class _StagedRow(dict):
    """One vague row's touched cells as Python floats, read on first use."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        super().__init__()
        self.row = row

    def __missing__(self, col: int) -> float:
        value = self[col] = float(self.row[col])
        return value


class BatchQuantileFilter:
    """Chunked, numpy-assisted QuantileFilter over integer-keyed streams.

    Keys must be integers (the experiment streams use integer flow ids);
    the scalar filter remains the general-purpose implementation for
    arbitrary hashable keys.

    Parameters mirror :class:`~repro.core.quantile_filter.QuantileFilter`
    where applicable; counters are plain Python floats (no saturation),
    matching the scalar filter's ``counter_kind="float"`` mode.  A
    ``memory_bytes`` budget resolves through
    :func:`~repro.core.shape.resolve_shape` at
    :data:`~repro.core.shape.BATCH_COUNTER_BYTES` per vague counter.
    """

    def __init__(
        self,
        criteria: Criteria,
        memory_bytes: Optional[int] = None,
        *,
        num_buckets: Optional[int] = None,
        vague_width: Optional[int] = None,
        bucket_size: int = 6,
        depth: int = 3,
        candidate_fraction: float = DEFAULT_CANDIDATE_FRACTION,
        fp_bits: int = 16,
        strategy: str = "comparative",
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.criteria = criteria
        self.chunk_size = chunk_size

        # The compiled loop indexes the planes by these: reject what
        # the scalar filter's CandidatePart rejects.
        self.bucket_size = require_positive_int("bucket_size", bucket_size)
        self.depth = depth
        self.fp_bits = fp_bits
        num_buckets, self.width = resolve_shape(
            memory_bytes, num_buckets, vague_width,
            counter_bytes=BATCH_COUNTER_BYTES,
            bucket_size=bucket_size, depth=depth, fp_bits=fp_bits,
            candidate_fraction=candidate_fraction,
        )
        self.num_buckets = require_positive_int("num_buckets", num_buckets)

        # Hash families constructed with the SAME seed derivations as the
        # scalar filter, so both address identical cells.  The seed is
        # kept because a capture rebuilds the filter, or a scalar twin,
        # from it (repro.core.persistence.restore_engine).
        self.seed = seed
        self._hashes = HashFamily(depth, self.width, seed=seed)
        self._signs = SignHashFamily(depth, seed=seed + 1)
        self._fp_hasher = FingerprintHasher(bits=fp_bits, seed=seed + 7)
        self._bucket_seed = np.uint64(mix64(seed ^ 0x1234_5678_9ABC_DEF0))
        self._num_buckets_u64 = np.uint64(self.num_buckets)
        self.strategy = make_strategy(strategy, seed=seed + 13)

        # Candidate part as dense numpy planes: the vectorised tier
        # gathers whole buckets per chunk; the scalar tier extracts the
        # few touched buckets into Python lists and writes them back.
        self._cand_fps = np.zeros(
            (self.num_buckets, bucket_size), dtype=np.uint64
        )
        self._cand_qws = np.zeros(
            (self.num_buckets, bucket_size), dtype=np.float64
        )
        # Per-slot scratch for the fast tier's crossing screen, allocated
        # by its first use (the compiled path never needs it) and zeroed
        # after every use so allocation happens once, not per chunk.
        self._scratch_pos: Optional[np.ndarray] = None
        # Vague part counters: one C-contiguous (depth, width) plane.
        self._rows = np.zeros((depth, self.width), dtype=np.float64)

        self._reported: Set[int] = set()
        self.items_processed = 0
        self.report_count = 0
        #: When True, the hot loop maintains the per-event tallies below
        #: (candidate hits, vague inserts, swaps).  Off by default so an
        #: uninstrumented run pays only one local-bool branch per item;
        #: ``repro.observability.observe_filter`` switches it on.
        self.stats_tallies = False
        self.candidate_hits = 0
        self.vague_inserts = 0
        self.swaps = 0
        # Reports are rare, so the by-source split is always maintained.
        self.candidate_reports = 0
        self.vague_reports = 0
        self.retargets = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def process(self, keys: np.ndarray, values: np.ndarray) -> Set[int]:
        """Run the whole stream; returns the deduplicated reported keys."""
        require_item_arrays(keys, values)
        n = keys.shape[0]
        # A cold filter ramps the chunk size up geometrically from a
        # small first chunk: at cold start every key misses the
        # candidate part, sending the whole first chunk to the scalar
        # tier, so short early chunks populate the buckets cheaply
        # before full-width chunks arrive.  A warm filter (every call
        # after the first, e.g. one call per chunk) starts at full
        # width.  Chunk boundaries never change semantics (each chunk
        # is exact), only how much work lands in which tier.
        start = 0
        size = self.chunk_size
        if self.items_processed == 0:
            size = min(_RAMP_FIRST_CHUNK, size)
        while start < n:
            self._process_chunk(
                keys[start:start + size], values[start:start + size]
            )
            start += size
            size = min(size * 2, self.chunk_size)
        return self._reported

    @property
    def reported_keys(self) -> Set[int]:
        """Deduplicated reported keys: the live set :meth:`process`
        returns, which grows as later chunks report."""
        return self._reported

    @reported_keys.setter
    def reported_keys(self, keys) -> None:
        self._reported = set(keys)

    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T``, preserving all sketch state.

        Same semantics as
        :meth:`~repro.core.quantile_filter.QuantileFilter.retarget`.
        Every chunk reads ``self.criteria`` once at its start
        (:meth:`_process_chunk`), so a retarget between :meth:`process`
        calls — the adaptive-controller cadence — takes effect exactly
        at the next chunk boundary, never mid-chunk.
        """
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        self.retargets += 1
        return self.criteria

    @property
    def _report_threshold_eff(self) -> float:
        # Same boundary tolerance as the scalar filter and the oracle.
        crit = self.criteria
        return crit.report_threshold - RANK_EPS * (1 + crit.report_threshold)

    # ------------------------------------------------------------------
    # chunk machinery
    # ------------------------------------------------------------------
    def _chunk_parts(self, keys: np.ndarray, values: np.ndarray):
        """Lock-free per-chunk precompute: fingerprints, buckets, weights.

        Pure functions of the inputs, the (immutable) hash families and
        the criteria — no other filter state is read and none is
        written, so concurrent callers (the thread-parallel engine in
        :mod:`repro.parallel.concurrent`) may run this outside any lock.
        """
        canon = canonical_keys(keys)
        fps = self._fp_hasher.fingerprints_batch(canon)
        buckets = (
            _mix64_array(canon ^ self._bucket_seed) % self._num_buckets_u64
        ).astype(np.int64)
        return fps, buckets, self._item_weights(values)

    def _item_weights(self, values: np.ndarray) -> np.ndarray:
        """Each item's weight under the criteria in force: the criteria's
        ``positive_weight`` when its value exceeds ``T``, -1 otherwise."""
        crit = self.criteria
        # Compared in float64, as the scalar filter does: NumPy would
        # compare a float32 array with T in float32.
        return np.where(
            np.asarray(values, dtype=np.float64) > crit.threshold,
            crit.positive_weight, -1.0,
        )

    def _hash(self, keys: np.ndarray, values: np.ndarray, kernel):
        """:meth:`_chunk_parts`, in one C call where the kernel takes it.

        With the compiled ``kernel`` integer keys take ``qf_hash``, which
        releases the GIL; other key dtypes, and hosts without the
        kernel, take :meth:`_chunk_parts`.  Either way it reads no
        filter state but the criteria, so the threads engine runs it
        outside its commit lock.
        """
        if kernel is None or not np.issubdtype(keys.dtype, np.integer):
            return self._chunk_parts(keys, values)
        n = int(keys.shape[0])
        # Two's complement bits of any integer dtype, as canonical_keys
        # reads them; kept alive in locals for the foreign call.
        key_bits = np.ascontiguousarray(keys, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        fps = np.empty(n, dtype=np.uint64)
        buckets = np.empty(n, dtype=np.int64)
        weights = np.empty(n, dtype=np.float64)
        crit = self.criteria
        fp_hasher = self._fp_hasher
        kernel.hash(
            key_bits.ctypes.data, values.ctypes.data, n,
            fp_hasher._seed, fp_hasher._mask, int(self._bucket_seed),
            self.num_buckets, crit.threshold, crit.positive_weight,
            fps.ctypes.data, buckets.ctypes.data, weights.ctypes.data,
        )
        return fps, buckets, weights

    def _classify_chunk(self, fps: np.ndarray, buckets: np.ndarray):
        """Split a (sub)chunk into the fast and scalar tiers.

        Classifies against chunk-start candidate state.  A "hit" is a
        fingerprint already resident in its bucket; the first miss in
        a bucket can mutate that bucket's slots (vacancy fill or
        replacement), so only the hit-prefix of each bucket — items
        strictly before the bucket's first miss — is provably pure.
        Reads the candidate planes: callers that share the planes across
        threads must hold the lock that guards them.

        Returns ``(hit, fast_idx, slow_idx)``: the per-slot hit matrix
        and the index arrays of the two tiers (both in ascending, i.e.
        stream, order).
        """
        n = int(fps.shape[0])
        bucket_rows = self._cand_fps[buckets]
        hit = bucket_rows == fps[:, None]
        hit_any = hit.any(axis=1)
        miss_idx = np.flatnonzero(~hit_any)
        if miss_idx.size:
            first_miss = np.full(self.num_buckets, n, dtype=np.int64)
            np.minimum.at(first_miss, buckets[miss_idx], miss_idx)
            fast_mask = hit_any & (np.arange(n) < first_miss[buckets])
        else:
            fast_mask = hit_any
        return hit, np.flatnonzero(fast_mask), np.flatnonzero(~fast_mask)

    def _process_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._run_chunk(keys, values, self._kernel())

    def _kernel(self) -> Optional[_QfKernel]:
        """The compiled kernel's routines, or ``None`` for the two tiers.

        The kernel implements the ``comparative`` election only; the
        other strategies, and hosts where no kernel loads, take the
        numpy two-tier path.
        """
        return _qf_kernel() if self.strategy.name == "comparative" else None

    def _run_chunk(self, keys: np.ndarray, values: np.ndarray, kernel) -> None:
        self._commit(kernel, keys, *self._hash(keys, values, kernel))

    def _commit(self, kernel, keys: np.ndarray, fps: np.ndarray,
                buckets: np.ndarray, weights: np.ndarray) -> None:
        """Algorithm 2 over one hashed chunk (:meth:`_hash`'s arrays).

        With the compiled ``kernel`` it is one C loop in stream order;
        without it, the numpy two tiers.
        """
        if kernel is not None:
            self._compiled_pass(kernel, keys, fps, buckets, weights)
        else:
            hit, fast_idx, slow_idx = self._classify_chunk(fps, buckets)
            # The two tiers commute: fast items touch only candidate
            # slots of buckets whose chunk prefix is hit-pure, and the
            # scalar tier begins exactly where those prefixes end, so
            # committing the whole vectorised tier first preserves
            # stream-order semantics.
            if fast_idx.size:
                self._fast_candidate_pass(
                    keys, buckets, weights, hit, fast_idx
                )
            if slow_idx.size:
                self._scalar_pass(keys, fps, buckets, weights, slow_idx)
        self.items_processed += int(keys.shape[0])

    def _compiled_pass(
        self,
        kernel,
        keys: np.ndarray,
        fps: np.ndarray,
        buckets: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Algorithm 2 over a whole chunk in one C loop, in stream order.

        ``fps``, ``buckets`` and ``weights`` are :meth:`_hash`'s
        C-contiguous arrays.  ``ctypes`` releases the GIL for the call.
        """
        n = int(fps.shape[0])
        out = np.zeros(_TALLIES + n, dtype=np.int64)
        kernel.process(
            fps.ctypes.data, buckets.ctypes.data, weights.ctypes.data, n,
            self._cand_fps.ctypes.data, self._cand_qws.ctypes.data,
            self.bucket_size, self._rows.ctypes.data, self.depth, self.width,
            self._hashes._seeds_np.ctypes.data,
            self._signs._seeds_np.ctypes.data,
            self._report_threshold_eff, out.ctypes.data,
        )
        hits, vague, swaps, candidate_reports, vague_reports = (
            out[:_TALLIES].tolist()
        )
        reports = candidate_reports + vague_reports
        if reports:
            self._reported.update(
                keys[out[_TALLIES:_TALLIES + reports]].tolist()
            )
            self.report_count += reports
            self.candidate_reports += candidate_reports
            self.vague_reports += vague_reports
        if self.stats_tallies:
            self.candidate_hits += hits
            self.vague_inserts += vague
            self.swaps += swaps

    def _fast_candidate_pass(
        self,
        keys: np.ndarray,
        buckets: np.ndarray,
        weights: np.ndarray,
        hit: np.ndarray,
        fast_idx: np.ndarray,
    ) -> None:
        """Grouped per-slot Qweight accumulation for pure candidate hits.

        A slot is *clean* when its starting Qweight plus the sum of the
        chunk's positive weights provably stays below the report
        threshold (with a safety margin dominating float summation
        error) — then no prefix of the slot's updates can cross, and
        the whole segment commits through one ordered ``np.add.at``.
        ``ufunc.at`` is unbuffered and applies the adds in index order,
        i.e. stream order, so the committed Qweights are bit-identical
        to the scalar filter's left-to-right additions.  Slots that
        might cross (hot keys about to report) are replayed
        item-by-item in stream order — slot-local state, so replay
        order relative to other slots is irrelevant.
        """
        report_threshold = self._report_threshold_eff
        qws_flat = self._cand_qws.reshape(-1)
        reported = self._reported

        slots = np.argmax(hit[fast_idx], axis=1)
        gslot = buckets[fast_idx] * self.bucket_size + slots
        fast_weights = weights[fast_idx]

        # Conservative crossing screen: per-slot positive-weight mass.
        scratch = self._scratch_pos
        if scratch is None:
            scratch = self._scratch_pos = np.zeros(
                self.num_buckets * self.bucket_size, dtype=np.float64
            )
        np.add.at(scratch, gslot, np.maximum(fast_weights, 0.0))
        bound = qws_flat[gslot] + scratch[gslot]
        scratch[gslot] = 0.0
        risky = bound >= report_threshold - 1e-7 * (np.abs(bound) + 1.0)

        if not risky.any():
            np.add.at(qws_flat, gslot, fast_weights)
        else:
            clean = ~risky
            np.add.at(qws_flat, gslot[clean], fast_weights[clean])
            # Replay risky slots exactly, grouped by slot, preserving
            # stream order within each slot (stable sort).
            risky_pos = np.flatnonzero(risky)
            order = risky_pos[np.argsort(gslot[risky_pos], kind="stable")]
            replay_slots = gslot[order].tolist()
            replay_weights = fast_weights[order].tolist()
            replay_keys = keys[fast_idx[order]].tolist()
            current_slot = -1
            qweight = 0.0
            for pos in range(len(replay_slots)):
                slot = replay_slots[pos]
                if slot != current_slot:
                    if current_slot >= 0:
                        qws_flat[current_slot] = qweight
                    current_slot = slot
                    qweight = qws_flat[slot]
                new_qw = qweight + replay_weights[pos]
                if new_qw >= report_threshold:
                    qweight = 0.0
                    reported.add(replay_keys[pos])
                    self.report_count += 1
                    self.candidate_reports += 1
                else:
                    qweight = new_qw
            if current_slot >= 0:
                qws_flat[current_slot] = qweight

        if self.stats_tallies:
            self.candidate_hits += int(fast_idx.size)

    def _scalar_pass(
        self,
        keys: np.ndarray,
        fps: np.ndarray,
        buckets: np.ndarray,
        weights: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        """Algorithm 2's exact per-item branch over the ``idx`` subset.

        This is the pre-vectorisation hot loop: it handles report
        crossings, vacancy fills, replacement decisions and every
        vague-part touch.  Touched buckets and vague cells are staged as
        Python lists and floats (fast scalar indexing) and written back
        afterwards; vague addressing is computed vectorised for just the
        subset.
        """
        if idx.size == 0:
            return
        report_threshold = self._report_threshold_eff
        key_list = keys[idx].tolist()
        fp_list = fps[idx].tolist()
        bucket_list = buckets[idx].tolist()
        weight_list = weights[idx].tolist()
        # Vague addressing depends only on (fp, bucket); computed for
        # the scalar subset only — the vectorised tier never needs it.
        vkeys = _mix64_array(
            (buckets[idx].astype(np.uint64) << _VKEY_SHIFT) ^ fps[idx]
        )
        cols = self._hashes.indices_batch(vkeys)
        signs = self._signs.signs_batch(vkeys)
        col_rows = [cols[r].tolist() for r in range(self.depth)]
        sign_rows = [signs[r].tolist() for r in range(self.depth)]
        # Stage the vague rows as Python floats for fast scalar updates
        # and write them back afterwards.  A long pass touches most
        # cells and stages whole rows; a short one (the common case once
        # the fast tier takes the hits) stages only the cells it
        # touches, because one whole-row round trip costs about as much
        # as staging a tenth of the cells one at a time.
        whole_rows = idx.size * 8 >= self.width
        if whole_rows:
            rows = self._rows.tolist()
        else:
            rows = [_StagedRow(row) for row in self._rows]

        # Stage touched buckets as plain lists for the loop below — one
        # fancy-indexed gather + tolist per plane, not one per bucket.
        touched = np.unique(buckets[idx])
        touched_list = touched.tolist()
        cand_fps: Dict[int, List[int]] = dict(
            zip(touched_list, self._cand_fps[touched].tolist())
        )
        cand_qws: Dict[int, List[float]] = dict(
            zip(touched_list, self._cand_qws[touched].tolist())
        )

        depth = self.depth
        bucket_size = self.bucket_size
        should_replace = self.strategy.should_replace
        reported = self._reported
        track = self.stats_tallies
        n_hits = n_vague = n_swaps = 0

        for i in range(len(key_list)):
            fp = fp_list[i]
            bucket = bucket_list[i]
            weight = weight_list[i]
            bucket_fps = cand_fps[bucket]
            bucket_qws = cand_qws[bucket]

            # Case 1: candidate hit.
            matched = False
            free = -1
            for slot in range(bucket_size):
                slot_fp = bucket_fps[slot]
                if slot_fp == fp:
                    if track:
                        n_hits += 1
                    new_qw = bucket_qws[slot] + weight
                    if new_qw >= report_threshold:
                        bucket_qws[slot] = 0.0
                        reported.add(key_list[i])
                        self.report_count += 1
                        self.candidate_reports += 1
                    else:
                        bucket_qws[slot] = new_qw
                    matched = True
                    break
                if slot_fp == 0 and free < 0:
                    free = slot
            if matched:
                continue

            # Case 2: vacancy.
            if free >= 0:
                bucket_fps[free] = fp
                if weight >= report_threshold:
                    bucket_qws[free] = 0.0
                    reported.add(key_list[i])
                    self.report_count += 1
                    self.candidate_reports += 1
                else:
                    bucket_qws[free] = weight
                continue

            # Case 3: vague part (fused insert + median estimate).
            if track:
                n_vague += 1
            ests = []
            for r in range(depth):
                col = col_rows[r][i]
                sign = sign_rows[r][i]
                rows[r][col] += sign * weight
                ests.append(sign * rows[r][col])
            ests.sort()
            estimate = ests[len(ests) // 2] if depth % 2 else (
                0.5 * (ests[depth // 2 - 1] + ests[depth // 2])
            )

            if estimate >= report_threshold:
                for r in range(depth):
                    rows[r][col_rows[r][i]] -= sign_rows[r][i] * estimate
                reported.add(key_list[i])
                self.report_count += 1
                self.vague_reports += 1
                estimate = 0.0

            # Candidate election against the bucket minimum.
            min_slot = 0
            min_qw = bucket_qws[0]
            for slot in range(1, bucket_size):
                if bucket_qws[slot] < min_qw:
                    min_qw = bucket_qws[slot]
                    min_slot = slot
            if should_replace(estimate, min_qw):
                if track:
                    n_swaps += 1
                evicted_fp = bucket_fps[min_slot]
                evicted_vkey = vague_key(evicted_fp, bucket)
                evicted_cols = self._hashes.indices(evicted_vkey)
                evicted_signs = self._signs.signs(evicted_vkey)
                for r in range(depth):
                    rows[r][evicted_cols[r]] += evicted_signs[r] * min_qw
                if estimate != 0.0:
                    for r in range(depth):
                        rows[r][col_rows[r][i]] -= sign_rows[r][i] * estimate
                bucket_fps[min_slot] = fp
                bucket_qws[min_slot] = estimate

        self._cand_fps[touched] = np.asarray(
            [cand_fps[b] for b in touched_list], dtype=np.uint64
        )
        self._cand_qws[touched] = np.asarray(
            [cand_qws[b] for b in touched_list], dtype=np.float64
        )
        if whole_rows:
            self._rows[...] = rows
        else:
            for plane_row, row in zip(self._rows, rows):
                if row:
                    plane_row[list(row)] = list(row.values())

        if track:
            self.candidate_hits += n_hits
            self.vague_inserts += n_vague
            self.swaps += n_swaps

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Occupied candidate slots (snapshot-time scan, not hot-path)."""
        return int(np.count_nonzero(self._cand_fps))

    def occupancy(self) -> float:
        """Fraction of candidate slots currently holding an entry."""
        return self.entry_count() / (self.num_buckets * self.bucket_size)

    def candidate_hit_rate(self) -> float:
        """Fraction of inserts resolved in the candidate part.

        Meaningful only while :attr:`stats_tallies` is on (the hit tally
        does not advance otherwise).
        """
        if self.items_processed == 0:
            return 0.0
        return self.candidate_hits / self.items_processed

    @property
    def nbytes(self) -> int:
        """Modelled memory footprint (:mod:`repro.core.shape`'s costs)."""
        slots = self.num_buckets * self.bucket_size
        counters = self.depth * self.width
        return slots * slot_bytes(self.fp_bits) + counters * BATCH_COUNTER_BYTES


# ----------------------------------------------------------------------
# the compiled Algorithm 2 loop
# ----------------------------------------------------------------------
def _canary_streams():
    """Fixed streams the compiled loop must reproduce before it is trusted.

    Six to twelve keys share two 2-slot buckets, so the candidate part
    fills at once and most items go through the vague part: vacancy
    fills, vague inserts, swaps and reports from both parts all happen.
    At ``delta = 0.5`` every weight is ±1, so vague cells return to
    exactly zero and the median ties ``0.0`` with ``-0.0``; the first
    two streams (and their filter seeds) are ones where picking the
    other zero changes a stored Qweight.
    """
    values = np.array([(i * 7919 % 13) * 10.0 for i in range(600)],
                      dtype=np.float64)
    keys = [np.array([(i * 2654435761 >> 7) % pool for i in range(600)],
                     dtype=np.int64) for pool in (6, 8, 12)]
    half = Criteria(delta=0.5, threshold=55.0, epsilon=2.0)
    return (
        (half, 5, keys[0], values),
        (half, 4, keys[1], values),
        (Criteria(delta=0.8, threshold=30.0, epsilon=0.0), 0,
         keys[2][::-1], values),
    )


def _canary_run(depth: int, criteria: Criteria, seed: int, keys: np.ndarray,
                values: np.ndarray, kernel) -> list:
    """One canary stream through one path: the state after every chunk."""
    filt = BatchQuantileFilter(
        criteria, num_buckets=2, vague_width=5, bucket_size=2,
        depth=depth, seed=seed,
    )
    filt.stats_tallies = True
    states = []
    for start in range(0, len(keys), 20):
        if start == 300:
            filt.retarget(criteria.threshold * 1.5)
        filt._run_chunk(keys[start:start + 20], values[start:start + 20],
                        kernel)
        states.append((
            filt._cand_fps.tobytes(), filt._cand_qws.tobytes(),
            filt._rows.tobytes(), sorted(filt.reported_keys),
            filt.report_count, filt.candidate_reports, filt.vague_reports,
            filt.candidate_hits, filt.vague_inserts, filt.swaps,
        ))
    return states


def _canary_hashes(kernel) -> bool:
    """Whether ``qf_hash`` hashes the canary keys as the numpy path does.

    The canary streams' keys, the int64 extremes and one uint64 key at
    or above 2**63: the Algorithm 2 canary streams hold only small
    non-negative keys, so the keys with the top bit set are checked
    here alone.
    """
    streams = _canary_streams()
    extremes = np.array([-1, -(2 ** 63), 2 ** 63 - 1], dtype=np.int64)
    chunks = (np.concatenate([stream[2] for stream in streams] + [extremes]),
              np.array([2 ** 63 + 12345], dtype=np.uint64))
    filt = BatchQuantileFilter(Criteria(delta=0.8, threshold=30.0),
                               num_buckets=7, vague_width=5, seed=3)
    for keys in chunks:
        values = np.resize(streams[0][3], keys.shape)
        compiled = filt._hash(keys, values, kernel)
        reference = filt._chunk_parts(keys, values)
        if not all(map(np.array_equal, compiled, reference)):
            return False
    return True


class _QfKernel(NamedTuple):
    """The routines of ``qf_kernel.c``: hashing and Algorithm 2."""

    hash: ctypes._CFuncPtr
    process: ctypes._CFuncPtr


_UNRESOLVED = object()
_qf_lock = threading.Lock()
_qf_compiled = _UNRESOLVED


def _qf_kernel() -> Optional[_QfKernel]:
    """The compiled kernel's routines, built or loaded on the first call.

    ``None`` means the numpy two-tier path runs instead: no kernel
    could be built here, or the kernel failed the canary.  Either way
    the cause was warned about once, and the answer holds for the
    process.
    """
    global _qf_compiled
    if _qf_compiled is _UNRESOLVED:
        with _qf_lock:
            if _qf_compiled is _UNRESOLVED:
                _qf_compiled = _load_qf_kernel()
    return _qf_compiled


def _load_qf_kernel() -> Optional[_QfKernel]:
    lib = native.load(_QF_SOURCE)
    if lib is None:
        return None
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    seed, real = ctypes.c_uint64, ctypes.c_double
    hash_chunk = lib.qf_hash
    hash_chunk.argtypes = (
        pointer, pointer, count,  # keys, values, n
        seed, seed, seed, count,  # fingerprint seed and mask, bucket hash
        real, real,  # threshold, positive weight
        pointer, pointer, pointer,  # fps, buckets, weights
    )
    hash_chunk.restype = None
    process = lib.qf_process
    process.argtypes = (
        pointer, pointer, pointer, count,  # the chunk's n items
        pointer, pointer, count,  # candidate planes, bucket size
        pointer, count, count,  # vague rows, depth, width
        pointer, pointer,  # row and sign seeds
        real, pointer,  # threshold, out
    )
    process.restype = None
    kernel = _QfKernel(hash_chunk, process)
    for depth in (3, 4):
        for stream in _canary_streams():
            expected = _canary_run(depth, *stream, None)
            if _canary_run(depth, *stream, kernel) != expected:
                warnings.warn(
                    "compiled QuantileFilter loop diverged from the numpy "
                    f"path on a canary stream at depth {depth}; running "
                    "the numpy path", RuntimeWarning, stacklevel=2,
                )
                return None
    if not _canary_hashes(kernel):
        warnings.warn(
            "compiled QuantileFilter hashing diverged from the numpy path "
            "on the canary keys; running the numpy path",
            RuntimeWarning, stacklevel=2,
        )
        return None
    return kernel


def qf_kernel_loaded() -> bool:
    """Whether the batch and threads engines run the compiled kernel.

    True when the kernel was built (or loaded from the cache) and passed
    its canary; it then hashes integer keys and runs Algorithm 2's loop
    for every ``comparative`` filter.  Resolves
    the kernel (building it on first use) if nothing has yet.
    """
    return _qf_kernel() is not None
