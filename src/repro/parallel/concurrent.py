"""Thread-parallel shared-sketch QuantileFilter (Quancurrent direction).

The process pipeline (:mod:`repro.parallel.pipeline`) buys parallelism
by giving every shard a private filter in a private process — and pays
a serialization/transport tax on every chunk to get data there.  This
module takes the opposite trade, following *Quancurrent: A Concurrent
Quantiles Sketch* (PAPERS.md): **one** shared set of numpy candidate /
vague planes, updated by N threads in the same address space, with
thread-local ingest buffers batching items between commits (the
KLL-style buffer-flush-merge shape: local accumulation, bulk merge into
the shared structure).

Concurrency design
==================

* **Thread-local ingest** (:class:`ThreadIngest`) — each updater thread
  appends into a private buffer; at ``flush_items`` it flushes.  No
  shared state is touched per item, only per flush.
* **Striped bucket-range locks** — the candidate planes are partitioned
  into ``num_stripes`` stripes by ``bucket % num_stripes``.  A flush
  hashes its buffer and groups it by stripe (stably, so per-bucket
  stream order is preserved) outside any lock, then commits each
  stripe's range while holding only that stripe's lock.  With the
  compiled kernel (:func:`~repro.core.vectorized.qf_kernel_loaded`)
  the hashing and grouping is one C call, and the commit is one C
  loop in stream order that stops at the first item needing the
  vague part; only then does it take the single vague lock and resume.
  Without the kernel it is the batch engine's two-tier pass
  (:meth:`~repro.core.vectorized.BatchQuantileFilter._classify_chunk`
  + the fast/scalar passes), and sub-chunks with scalar-tier items
  take the vague lock for the whole commit.  Threads touching disjoint
  stripes commit concurrently; lock order is always stripe -> vague,
  so no deadlock is possible.
* **Seqlock read path** — each stripe carries a sequence counter that
  is odd while a commit mutates it (the kernel runs without the GIL,
  so a reader can overlap it and must retry).  Readers (:meth:`query`,
  the stats snapshot helpers) read optimistically and retry on a
  seqlock change, falling back to taking the lock after a few spins,
  so scrapes never block inserts.
* **Per-stripe sinks** (:class:`StripeSink`) — reports and event
  tallies land in per-stripe accumulators (mutated only under the
  stripe's lock), because racing ``int +=`` on one shared filter
  attribute would drop updates.  A key's bucket owns it, so the union
  of sink report sets is exactly the deduplicated global report set.

Equivalence model (pinned by ``tests/properties/
test_property_concurrent_equivalence.py``)
==========================================

* *Single ingest*: one thread flushing through the striped path is
  **bit-identical** to :class:`~repro.core.vectorized.
  BatchQuantileFilter` processing the same stream with each flush
  buffer stably stripe-sorted — the stripe sort is the only reordering
  the engine introduces.
* *No-overflow regime*: candidate interactions are bucket-local, so
  while no bucket overflows into the vague part, any number of racing
  threads produce the exact single-thread report set and candidate
  state as long as each bucket's items arrive through one thread
  (bucket-affine feeding, e.g. :class:`~repro.parallel.sharded.
  ShardRouter`).
* *General regime*: with ``record_witness=True`` every committed
  sub-chunk is logged with a global ticket taken inside its innermost
  lock (a compiled commit that reached the vague part logs its
  stripe-locked prefix and its vague-locked suffix as two segments).
  Replaying the witness segments in ticket order through a fresh
  single-thread batch filter (:func:`replay_witness`) reproduces the
  shared planes **bit-exactly** — cross-stripe candidate commits touch
  disjoint memory (they commute), vague-touching commits are totally
  ordered by the vague lock, and tickets extend both orders.

Throughput: the compiled kernel is called through :mod:`ctypes`, which
releases the GIL for every call.  A flush makes one call to hash and
stripe-split its buffer and one or two per stripe to commit, so the
updaters hash and commit in parallel; only the per-stripe lock
bookkeeping and report handling take turns under the GIL.  Without a
compiler the hashing, the stripe sort and the commits are numpy passes
plus a per-item Python tier, which hold the GIL for most of their
time, and the remaining win over ``pipeline_shm`` is skipping the
per-chunk serialize/copy/deserialize — see the equal-core head-to-head
in ``benchmarks/test_throughput_smoke.py`` and ``docs/performance.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import DEFAULT_CANDIDATE_FRACTION
from repro.core.vectorized import DEFAULT_CHUNK_SIZE, BatchQuantileFilter
from repro.observability.histogram import LogHistogram
from repro.streams.model import Trace

#: Default number of bucket stripes.  A multiple of the updater-thread
#: count keeps steady-state commits contention-free under bucket-affine
#: feeding (a thread's buckets then map onto a private stripe subset).
DEFAULT_NUM_STRIPES = 16

#: Default thread-local buffer length between flushes.  Matches the
#: batch engine's chunk size: each flush is one exact chunk pass.
DEFAULT_FLUSH_ITEMS = DEFAULT_CHUNK_SIZE

#: Optimistic seqlock read attempts before falling back to the lock.
_SEQLOCK_SPINS = 64


class StripeSink:
    """Per-stripe report/tally accumulator (mutated under its lock).

    Exposes the exact attribute set the batch engine's tier passes
    mutate (their ``sink`` parameter), so a stripe commit redirects all
    bookkeeping here instead of racing on shared filter attributes.
    """

    __slots__ = (
        "reported_keys",
        "report_count",
        "candidate_reports",
        "vague_reports",
        "candidate_hits",
        "vague_inserts",
        "swaps",
        "stats_tallies",
        "items",
        "flushes",
    )

    def __init__(self):
        self.reported_keys: Set[int] = set()
        self.report_count = 0
        self.candidate_reports = 0
        self.vague_reports = 0
        self.candidate_hits = 0
        self.vague_inserts = 0
        self.swaps = 0
        self.stats_tallies = False
        self.items = 0
        self.flushes = 0


@dataclass
class WitnessSegment:
    """One committed sub-chunk: its commit ticket and item arrays.

    ``ticket`` is drawn inside the segment's innermost lock, so sorting
    segments by ticket linearizes the concurrent execution (see the
    module docstring); ``keys``/``values`` are private copies.
    """

    ticket: int
    keys: np.ndarray
    values: np.ndarray


class ConcurrentQuantileFilter:
    """A QuantileFilter whose planes are shared by N updater threads.

    Construction mirrors :class:`~repro.core.vectorized.
    BatchQuantileFilter` (integer keys, float counters); the extra
    knobs are the concurrency geometry:

    Parameters
    ----------
    num_stripes:
        Bucket-stripe count (lock granularity).  More stripes = less
        commit contention; ``DEFAULT_NUM_STRIPES`` unless the filter is
        tiny.
    flush_items:
        Default thread-local buffer length for :meth:`ingest`.
    record_witness:
        Log every committed sub-chunk with a commit ticket for
        :func:`replay_witness` (test/verification aid; costs one array
        copy per commit).
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
        num_stripes: int = DEFAULT_NUM_STRIPES,
        flush_items: int = DEFAULT_FLUSH_ITEMS,
        record_witness: bool = False,
    ):
        if num_stripes < 1:
            raise ParameterError(
                f"num_stripes must be >= 1, got {num_stripes}"
            )
        if flush_items < 1:
            raise ParameterError(
                f"flush_items must be >= 1, got {flush_items}"
            )
        self._core = BatchQuantileFilter(
            criteria,
            memory_bytes,
            num_buckets=num_buckets,
            vague_width=vague_width,
            bucket_size=bucket_size,
            depth=depth,
            candidate_fraction=candidate_fraction,
            fp_bits=fp_bits,
            strategy=strategy,
            seed=seed,
        )
        self.seed = seed
        self.flush_items = flush_items
        # More stripes than buckets would leave empty stripes holding
        # locks nothing maps to; clamp silently (tiny test filters).
        self.num_stripes = min(num_stripes, self._core.num_buckets)
        self._stripe_locks = [
            threading.Lock() for _ in range(self.num_stripes)
        ]
        self._vague_lock = threading.Lock()
        #: Per-stripe seqlock counters — odd while a commit is mutating
        #: the stripe.  Plain list of ints: every write happens under
        #: the stripe's lock, readers only ever load.
        self._stripe_seq = [0] * self.num_stripes
        self._sinks = [StripeSink() for _ in range(self.num_stripes)]
        #: Commit tickets; ``itertools.count`` advances atomically on
        #: CPython, and each draw happens inside a lock anyway.
        self._tickets = itertools.count()
        self.witness: Optional[List[WitnessSegment]] = (
            [] if record_witness else None
        )
        #: Stripe-lock wait time per flush sub-chunk (seconds), surfaced
        #: as the ``qf_lock_wait_seconds`` histogram by observe_filter.
        self.lock_wait = LogHistogram(min_value=1e-7, max_value=10.0)
        self._telemetry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, flush_items: Optional[int] = None) -> "ThreadIngest":
        """A new thread-local ingest buffer bound to this filter.

        Each updater thread owns one; buffers are independent, so no
        two threads may share a :class:`ThreadIngest`.
        """
        return ThreadIngest(
            self, flush_items if flush_items is not None else self.flush_items
        )

    def process(self, keys: np.ndarray, values: np.ndarray) -> Set[int]:
        """Single-caller convenience: ingest + flush the whole stream.

        Chunks through the striped commit path exactly as a lone
        updater thread would; returns the deduplicated reported keys.
        """
        trace = Trace(np.asarray(keys), np.asarray(values))
        for chunk_keys, chunk_values in trace.iter_chunks(self.flush_items):
            self._flush(chunk_keys, chunk_values)
        return self.reported_keys

    def _flush(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Commit one ingest buffer, one stripe at a time.

        One :meth:`~repro.core.vectorized.BatchQuantileFilter._partition`
        call hashes the buffer and groups it by stripe, outside any lock
        (with the compiled kernel: one C call without the GIL).  Each
        stripe's ``[lo, hi)`` range then commits under that stripe's
        lock.  With the kernel the commit runs in stream order and stops
        at the first item that needs the vague part; only then does it
        take the vague lock and resume from that item.  The prefix and
        the suffix are logged as two witness segments, each ticketed
        under its own innermost lock, so :func:`replay_witness` stays
        exact.  Without the kernel, the batch engine's two tiers
        classify the range against current plane state.  Lock order is
        stripe -> vague everywhere.
        """
        core = self._core
        if keys.shape[0] == 0:
            return
        kernel = core._kernel()
        fps, buckets, weights, order, bounds = core._partition(
            keys, values, self.num_stripes, kernel
        )
        bounds = bounds.tolist()
        seq = self._stripe_seq
        for stripe in range(self.num_stripes):
            lo, hi = bounds[stripe], bounds[stripe + 1]
            if lo == hi:
                continue
            sink = self._sinks[stripe]
            wait_start = time.perf_counter()
            with self._stripe_locks[stripe]:
                waited = time.perf_counter() - wait_start
                # Odd while the commit runs, including the GIL-free
                # kernel calls, so an overlapping seqlock read retries.
                seq[stripe] += 1
                try:
                    if kernel is None:
                        self._two_tier_commit(
                            keys, values, order, fps, buckets, weights,
                            lo, hi, sink,
                        )
                    else:
                        stop = core._compiled_pass(
                            kernel, keys, order, fps, buckets, weights,
                            lo, hi, stop_at_vague=True, sink=sink,
                        )
                        if stop > lo:
                            self._record_witness(order[lo:stop], keys, values)
                        if stop < hi:
                            with self._vague_lock:
                                self._record_witness(
                                    order[stop:hi], keys, values
                                )
                                core._compiled_pass(
                                    kernel, keys, order, fps, buckets,
                                    weights, stop, hi, sink=sink,
                                )
                    sink.items += hi - lo
                    sink.flushes += 1
                finally:
                    seq[stripe] += 1  # even: stripe consistent again
            with self._telemetry_lock:
                self.lock_wait.record(waited)

    def _two_tier_commit(self, keys, values, order, fps, buckets, weights,
                         lo, hi, sink) -> None:
        """Items ``[lo, hi)`` through the numpy tiers (stripe lock held)."""
        core = self._core
        idx = order[lo:hi]
        sub_keys = keys[idx]
        sub_fps, sub_buckets = fps[lo:hi], buckets[lo:hi]
        sub_weights = weights[lo:hi]
        hit, fast_idx, slow_idx = core._classify_chunk(sub_fps, sub_buckets)
        if slow_idx.size:
            # Scalar-tier items can spill into the shared vague sketch:
            # serialize on the vague lock for the whole mixed commit so
            # the witness ticket (drawn below) extends the vague order.
            with self._vague_lock:
                self._record_witness(idx, keys, values)
                if fast_idx.size:
                    core._fast_candidate_pass(
                        sub_keys, sub_buckets, sub_weights,
                        hit, fast_idx, sink=sink,
                    )
                core._scalar_pass(
                    sub_keys, sub_fps, sub_buckets, sub_weights,
                    slow_idx, sink=sink,
                )
        else:
            self._record_witness(idx, keys, values)
            core._fast_candidate_pass(
                sub_keys, sub_buckets, sub_weights, hit, fast_idx,
                sink=sink,
            )

    def _record_witness(
        self, idx: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        if self.witness is None:
            return
        segment = WitnessSegment(
            ticket=next(self._tickets),
            keys=keys[idx].copy(),
            values=values[idx].copy(),
        )
        # list.append is atomic under the GIL; segments from racing
        # threads interleave arbitrarily and are sorted by ticket at
        # replay time.
        self.witness.append(segment)

    # ------------------------------------------------------------------
    # read path (seqlock: never blocks inserts)
    # ------------------------------------------------------------------
    def query(self, key) -> float:
        """Current Qweight estimate of ``key`` (consistent snapshot read).

        Candidate part first (exact if resident), read optimistically
        under the owning stripe's seqlock; a candidate miss falls back
        to the vague estimate under the vague lock (misses are the rare
        path).
        """
        core = self._core
        key_arr = np.asarray([key], dtype=np.int64)
        fps, buckets, _ = core._chunk_parts(
            key_arr, np.zeros(1, dtype=np.float64)
        )
        fp = int(fps[0])
        bucket = int(buckets[0])
        stripe = bucket % self.num_stripes
        row_fps, row_qws = self._read_bucket(bucket, stripe)
        for slot in range(core.bucket_size):
            if row_fps[slot] == fp:
                return float(row_qws[slot])
        with self._vague_lock:
            return self._vague_estimate(fp, bucket)

    def _read_bucket(self, bucket: int, stripe: int):
        """Seqlock-consistent copy of one bucket's fp/qw rows."""
        core = self._core
        seq = self._stripe_seq
        for _ in range(_SEQLOCK_SPINS):
            before = seq[stripe]
            if before & 1:
                continue
            row_fps = core._cand_fps[bucket].tolist()
            row_qws = core._cand_qws[bucket].tolist()
            if seq[stripe] == before:
                return row_fps, row_qws
        # Pathological contention: take the lock (bounded, still rare).
        with self._stripe_locks[stripe]:
            return (
                core._cand_fps[bucket].tolist(),
                core._cand_qws[bucket].tolist(),
            )

    def _vague_estimate(self, fp: int, bucket: int) -> float:
        """Median-of-rows vague estimate (caller holds the vague lock)."""
        core = self._core
        from repro.core.vague import vague_key

        vkey = vague_key(fp, bucket)
        cols = core._hashes.indices(vkey)
        signs = core._signs.signs(vkey)
        ests = sorted(
            signs[r] * core._rows.item(r, cols[r]) for r in range(core.depth)
        )
        depth = core.depth
        if depth % 2:
            return float(ests[depth // 2])
        return float(0.5 * (ests[depth // 2 - 1] + ests[depth // 2]))

    @property
    def reported_keys(self) -> Set[int]:
        """Deduplicated reported keys across all stripes (lock-free).

        Optimistic set copies; a copy that races a concurrent ``add``
        raises ``RuntimeError`` and is retried, with a bounded fallback
        to the stripe locks.  The union is exact because each key
        belongs to exactly one stripe.
        """
        for _ in range(_SEQLOCK_SPINS):
            try:
                out: Set[int] = set()
                for sink in self._sinks:
                    out |= set(sink.reported_keys)
                return out
            except RuntimeError:
                continue
        out = set()
        for stripe, sink in enumerate(self._sinks):
            with self._stripe_locks[stripe]:
                out |= set(sink.reported_keys)
        return out

    # ------------------------------------------------------------------
    # consistent snapshots / folding
    # ------------------------------------------------------------------
    def _all_locks(self):
        """Acquire every stripe lock (ascending) plus the vague lock."""
        return _MultiLock([*self._stripe_locks, self._vague_lock])

    def as_batch(self) -> BatchQuantileFilter:
        """A consistent point-in-time :class:`BatchQuantileFilter` copy.

        Takes all stripe locks (ascending order, so concurrent
        snapshots cannot deadlock) plus the vague lock, then deep-copies
        planes, vague rows, and the folded sink tallies.  The copy is a
        fully independent single-thread filter — persistable with
        :func:`repro.core.persistence.engine_state`, mergeable via
        :func:`repro.parallel.sharded.batch_filter_to_scalar`.
        """
        core = self._core
        with self._all_locks():
            twin = BatchQuantileFilter(
                core.criteria,
                num_buckets=core.num_buckets,
                vague_width=core.width,
                bucket_size=core.bucket_size,
                depth=core.depth,
                fp_bits=core.fp_bits,
                strategy=core.strategy.name,
                seed=core.seed,
            )
            twin._cand_fps[...] = core._cand_fps
            twin._cand_qws[...] = core._cand_qws
            twin._rows[...] = core._rows
            for sink in self._sinks:
                twin.reported_keys |= sink.reported_keys
                twin.report_count += sink.report_count
                twin.candidate_reports += sink.candidate_reports
                twin.vague_reports += sink.vague_reports
                twin.candidate_hits += sink.candidate_hits
                twin.vague_inserts += sink.vague_inserts
                twin.swaps += sink.swaps
                twin.items_processed += sink.items
            twin.retargets = core.retargets
            twin.stats_tallies = self.stats_tallies
            return twin

    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T`` under a full-structure lock.

        Taking every stripe lock guarantees no flush straddles the
        change — each sub-chunk commits entirely under the old or
        entirely under the new criteria, exactly the batch engine's
        chunk-boundary retargeting contract.
        """
        with self._all_locks():
            return self._core.retarget(threshold)

    # ------------------------------------------------------------------
    # filter-shaped accounting (observe_filter / structural_probe)
    # ------------------------------------------------------------------
    @property
    def criteria(self) -> Criteria:
        return self._core.criteria

    @property
    def retargets(self) -> int:
        return self._core.retargets

    @property
    def num_buckets(self) -> int:
        return self._core.num_buckets

    @property
    def bucket_size(self) -> int:
        return self._core.bucket_size

    @property
    def fp_bits(self) -> int:
        return self._core.fp_bits

    @property
    def width(self) -> int:
        return self._core.width

    @property
    def depth(self) -> int:
        return self._core.depth

    @property
    def strategy(self):
        return self._core.strategy

    @property
    def _rows(self):
        # Read-only view for structural_probe's vague-noise estimate.
        return self._core._rows

    @property
    def items_processed(self) -> int:
        return sum(sink.items for sink in self._sinks)

    @property
    def report_count(self) -> int:
        return sum(sink.report_count for sink in self._sinks)

    @property
    def candidate_reports(self) -> int:
        return sum(sink.candidate_reports for sink in self._sinks)

    @property
    def vague_reports(self) -> int:
        return sum(sink.vague_reports for sink in self._sinks)

    @property
    def candidate_hits(self) -> int:
        return sum(sink.candidate_hits for sink in self._sinks)

    @property
    def vague_inserts(self) -> int:
        return sum(sink.vague_inserts for sink in self._sinks)

    @property
    def swaps(self) -> int:
        return sum(sink.swaps for sink in self._sinks)

    @property
    def thread_flushes(self) -> int:
        """Striped sub-chunk commits completed (all stripes)."""
        return sum(sink.flushes for sink in self._sinks)

    @property
    def stats_tallies(self) -> bool:
        return all(sink.stats_tallies for sink in self._sinks)

    @stats_tallies.setter
    def stats_tallies(self, value: bool) -> None:
        for sink in self._sinks:
            sink.stats_tallies = bool(value)

    def entry_count(self) -> int:
        """Occupied candidate slots (racy scan: snapshot-quality only)."""
        return self._core.entry_count()

    def occupancy(self) -> float:
        return self._core.occupancy()

    def candidate_hit_rate(self) -> float:
        items = self.items_processed
        if items == 0:
            return 0.0
        return self.candidate_hits / items

    @property
    def nbytes(self) -> int:
        return self._core.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConcurrentQuantileFilter(num_stripes={self.num_stripes}, "
            f"num_buckets={self.num_buckets}, nbytes={self.nbytes})"
        )


class _MultiLock:
    """Context manager acquiring a lock list in order, releasing reversed."""

    __slots__ = ("_locks",)

    def __init__(self, locks):
        self._locks = locks

    def __enter__(self):
        for lock in self._locks:
            lock.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        for lock in reversed(self._locks):
            lock.release()


class ThreadIngest:
    """Thread-local ingest buffer feeding one ConcurrentQuantileFilter.

    Single-owner: exactly one thread appends and flushes.  Scalar
    inserts accumulate into Python lists (cheap appends, one ndarray
    materialization per flush); array inserts accumulate by reference.
    Both buffer until ``flush_items`` is reached — committing a
    sub-``flush_items`` slice immediately would defeat the whole point
    of the buffer (each commit pays fixed per-pass numpy and locking
    overhead, so the pipeline feeding 1/N-sized shard slices must still
    amortize over full-size flushes).
    """

    __slots__ = (
        "filt", "flush_items", "_keys", "_values", "_arrays",
        "_array_items", "flushes",
    )

    def __init__(self, filt: ConcurrentQuantileFilter, flush_items: int):
        if flush_items < 1:
            raise ParameterError(
                f"flush_items must be >= 1, got {flush_items}"
            )
        self.filt = filt
        self.flush_items = flush_items
        self._keys: List[int] = []
        self._values: List[float] = []
        #: Buffered (keys, values) array pairs, in arrival order; the
        #: scalar lists are folded in whenever the mode switches so one
        #: interleaving of insert()/insert_many() keeps stream order.
        self._arrays: List = []
        self._array_items = 0
        self.flushes = 0

    def _fold_scalar_buffer(self) -> None:
        if self._keys:
            self._arrays.append((
                np.asarray(self._keys, dtype=np.int64),
                np.asarray(self._values, dtype=np.float64),
            ))
            self._array_items += len(self._keys)
            self._keys = []
            self._values = []

    def insert(self, key: int, value: float) -> None:
        """Buffer one item; flushes when the buffer fills."""
        self._keys.append(key)
        self._values.append(value)
        if len(self._keys) + self._array_items >= self.flush_items:
            self.flush()

    def insert_many(self, keys, values) -> None:
        """Buffer whole arrays (by reference, zero copies).

        Flushes once the accumulated total reaches ``flush_items``;
        oversized inputs stream through in ``flush_items``-sized chunks
        via :meth:`~repro.streams.model.Trace.iter_chunks`.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if keys.shape[0] == 0:
            return
        self._fold_scalar_buffer()
        self._arrays.append((keys, values))
        self._array_items += int(keys.shape[0])
        if self._array_items >= self.flush_items:
            self.flush()

    def flush(self) -> None:
        """Commit all buffered items now (no-op when empty)."""
        self._fold_scalar_buffer()
        if not self._arrays:
            return
        if len(self._arrays) == 1:
            keys, values = self._arrays[0]
        else:
            keys = np.concatenate([pair[0] for pair in self._arrays])
            values = np.concatenate([pair[1] for pair in self._arrays])
        self._arrays = []
        self._array_items = 0
        trace = Trace(keys, values)
        for chunk_keys, chunk_values in trace.iter_chunks(self.flush_items):
            self.filt._flush(chunk_keys, chunk_values)
            self.flushes += 1

    @property
    def pending(self) -> int:
        """Items buffered but not yet flushed."""
        return len(self._keys) + self._array_items

    def __enter__(self) -> "ThreadIngest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()


def replay_witness(
    segments: List[WitnessSegment], template: ConcurrentQuantileFilter
) -> BatchQuantileFilter:
    """Replay a witness log through a fresh single-thread batch filter.

    Segments are applied in commit-ticket order, each as one exact
    chunk pass.  Because tickets extend both the per-stripe lock order
    and the vague lock order, and cross-stripe candidate-only commits
    touch disjoint plane memory, the result is bit-identical to the
    concurrent filter's shared planes (see the module docstring and
    ``tests/properties/test_property_concurrent_equivalence.py``).
    """
    core = template._core
    replayed = BatchQuantileFilter(
        core.criteria,
        num_buckets=core.num_buckets,
        vague_width=core.width,
        bucket_size=core.bucket_size,
        depth=core.depth,
        fp_bits=core.fp_bits,
        strategy=core.strategy.name,
        seed=core.seed,
    )
    for segment in sorted(segments, key=lambda s: s.ticket):
        replayed._process_chunk(segment.keys, segment.values)
    return replayed
