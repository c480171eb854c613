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
  keeps a private buffer of arrays and flushes it at ``flush_items``
  items.  No shared state is touched per array, only per flush.
* **One commit lock** — a flush hashes its whole buffer outside the
  lock (with the compiled kernel,
  :func:`~repro.core.vectorized.qf_kernel_loaded`: one C call without
  the GIL), then, holding the lock, runs Algorithm 2 over the buffer in
  stream order, exactly as the batch engine commits one chunk: one C
  call, or the numpy two-tier pass
  (:meth:`~repro.core.vectorized.BatchQuantileFilter._classify_chunk`
  + the fast/scalar passes) without the kernel.  Reports and tallies
  land on the shared batch core under the same lock.  Quancurrent's
  finer-grained locks do not pay under CPython's GIL: each lock a
  flush takes costs Python time under the GIL, while the C commit of
  an item costs less than hashing it, so the updaters overlap one
  flush's hashing with another's commit instead.
* **Lock-free scrapes** — :attr:`reported_keys` is one ``set`` copy,
  a single C call under the GIL that no commit can interleave with.
  The tallies and plane counts that telemetry scrapes read
  (:func:`~repro.observability.instrument.observe_filter`,
  :func:`~repro.core.inspect.structural_probe`) are plain loads of
  snapshot quality: a scrape during a flush may see part of it.

Equivalence model (pinned by ``tests/properties/
test_property_concurrent_equivalence.py``)
==========================================

* *Single ingest*: one thread flushing is **bit-identical** to
  :class:`~repro.core.vectorized.BatchQuantileFilter` processing the
  same flush chunks: the engine reorders nothing.
* *No-overflow regime*: candidate interactions are bucket-local, so
  while no bucket overflows into the vague part, any number of racing
  threads produce the exact single-thread report set and candidate
  state as long as each bucket's items arrive through one thread
  (bucket-affine feeding, e.g. :class:`~repro.parallel.sharded.
  ShardRouter`).
* *General regime*: with ``record_witness=True`` every flush is logged
  as one segment with a global ticket drawn under the commit lock.
  Replaying the segments in ticket order through a fresh single-thread
  batch filter (:func:`replay_witness`) reproduces the shared planes
  **bit-exactly**: the lock totally orders the commits, the tickets
  follow that order, and each commit is one exact chunk pass under
  the criteria in force when it commits (a retarget that lands between
  a flush's hashing and its commit makes the flush recompute its
  weights under the lock).

Throughput: the compiled kernel is called through :mod:`ctypes`, which
releases the GIL for every call.  A flush makes two calls, one to hash
its buffer and one to commit it, so the updaters hash in parallel and
one hashes while another commits; only the lock bookkeeping and report
handling take turns under the GIL.  Without a compiler the hashing and
the commit are numpy passes plus a per-item Python tier, which hold the
GIL for most of their time, and the remaining win over ``pipeline_shm``
is skipping the per-chunk serialize/copy/deserialize — see the
equal-core head-to-head in ``benchmarks/test_throughput_smoke.py`` and
``docs/performance.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.common.errors import ParameterError
from repro.common.validation import require_integer_keys, require_item_arrays
from repro.core.criteria import Criteria
from repro.core.quantile_filter import DEFAULT_CANDIDATE_FRACTION
from repro.core.vectorized import DEFAULT_CHUNK_SIZE, BatchQuantileFilter
from repro.observability.histogram import LogHistogram

#: Default thread-local buffer length between flushes.  Matches the
#: batch engine's chunk size: each flush is one exact chunk pass.
DEFAULT_FLUSH_ITEMS = DEFAULT_CHUNK_SIZE


@dataclass
class WitnessSegment:
    """One committed flush: its commit ticket and item arrays.

    ``ticket`` is drawn under the commit lock, so sorting segments by
    ticket linearizes the concurrent execution (see the module
    docstring); ``keys``/``values`` are private copies.
    """

    ticket: int
    keys: np.ndarray
    values: np.ndarray


class ConcurrentQuantileFilter:
    """A QuantileFilter whose planes are shared by N updater threads.

    Construction mirrors :class:`~repro.core.vectorized.
    BatchQuantileFilter` (integer keys, float counters); the extra
    knobs are the ingest geometry:

    Parameters
    ----------
    flush_items:
        Thread-local buffer length of every :meth:`ingest` buffer.
    record_witness:
        Log every committed flush with a commit ticket for
        :func:`replay_witness` (test/verification aid; costs one array
        copy per flush).
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
        flush_items: int = DEFAULT_FLUSH_ITEMS,
        record_witness: bool = False,
    ):
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
        #: Guards the core: its planes, criteria, reports and tallies,
        #: plus the witness order.  One flush commits at a time.
        self._lock = threading.Lock()
        self._tickets = itertools.count()
        self.witness: Optional[List[WitnessSegment]] = (
            [] if record_witness else None
        )
        #: Commit-lock wait per flush (seconds), surfaced as the
        #: ``qf_lock_wait_seconds`` histogram by observe_filter.
        self.lock_wait = LogHistogram(min_value=1e-7, max_value=10.0)
        #: Flushes committed into the shared planes.
        self.thread_flushes = 0

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self) -> "ThreadIngest":
        """A new thread-local ingest buffer bound to this filter.

        Each updater thread owns one; buffers are independent, so no
        two threads may share a :class:`ThreadIngest`.
        """
        return ThreadIngest(self)

    def process(self, keys: np.ndarray, values: np.ndarray) -> Set[int]:
        """Single-caller convenience: ingest + flush the whole stream.

        Feeds one :class:`ThreadIngest`, exactly as a lone updater
        thread would, so the stream commits in ``flush_items`` chunks;
        returns the deduplicated reported keys.
        """
        with self.ingest() as ingest:
            ingest.insert_many(keys, values)
        return self.reported_keys

    def _flush(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Commit one ingest buffer under the commit lock.

        :meth:`~repro.core.vectorized.BatchQuantileFilter._hash` hashes
        the buffer outside the lock (with the compiled kernel: one C
        call without the GIL).  Holding the lock,
        :meth:`~repro.core.vectorized.BatchQuantileFilter._commit` then
        runs Algorithm 2 over it in stream order, as the batch engine
        commits one chunk.  A retarget that landed after the hashing
        read ``T`` left weights of the old ``T``; they are recomputed
        under the lock, so every flush commits under the criteria in
        force when it commits, and a witness replay that retargets at
        the same witness positions reproduces it.
        """
        if keys.shape[0] == 0:
            return
        core = self._core
        witness = self.witness
        if witness is not None:
            # Private copies: the buffered arrays belong to the caller.
            keys, values = keys.copy(), values.copy()
        kernel = core._kernel()
        # Read before hashing reads T: a retarget after this read makes
        # the commit below recompute the weights.
        criteria = core.criteria
        fps, buckets, weights = core._hash(keys, values, kernel)
        wait_start = time.perf_counter()
        with self._lock:
            waited = time.perf_counter() - wait_start
            if core.criteria is not criteria:
                weights = core._item_weights(values)
            core._commit(kernel, keys, fps, buckets, weights)
            if witness is not None:
                witness.append(
                    WitnessSegment(next(self._tickets), keys, values)
                )
            self.thread_flushes += 1
            self.lock_wait.record(waited)

    # ------------------------------------------------------------------
    # reads (never block inserts)
    # ------------------------------------------------------------------
    @property
    def reported_keys(self) -> Set[int]:
        """Deduplicated reported keys: a copy of the shared set.

        Lock-free: copying a set is one C call under the GIL, so it
        never sees a commit's insert half done.
        """
        return set(self._core.reported_keys)

    # ------------------------------------------------------------------
    # structure-wide operations
    # ------------------------------------------------------------------
    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T`` under the commit lock.

        A flush commits wholly under the old or wholly under the new
        criteria, exactly the batch engine's chunk-boundary retargeting
        contract: one that hashed under the old ``T`` and commits after
        the change recomputes its weights (:meth:`_flush`).
        """
        with self._lock:
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
        return self._core.items_processed

    @property
    def report_count(self) -> int:
        return self._core.report_count

    @property
    def candidate_reports(self) -> int:
        return self._core.candidate_reports

    @property
    def vague_reports(self) -> int:
        return self._core.vague_reports

    @property
    def candidate_hits(self) -> int:
        return self._core.candidate_hits

    @property
    def vague_inserts(self) -> int:
        return self._core.vague_inserts

    @property
    def swaps(self) -> int:
        return self._core.swaps

    @property
    def stats_tallies(self) -> bool:
        return self._core.stats_tallies

    @stats_tallies.setter
    def stats_tallies(self, value: bool) -> None:
        self._core.stats_tallies = bool(value)

    def entry_count(self) -> int:
        """Occupied candidate slots (racy scan: snapshot-quality only)."""
        return self._core.entry_count()

    def occupancy(self) -> float:
        return self._core.occupancy()

    def candidate_hit_rate(self) -> float:
        return self._core.candidate_hit_rate()

    @property
    def nbytes(self) -> int:
        return self._core.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConcurrentQuantileFilter(num_buckets={self.num_buckets}, "
            f"nbytes={self.nbytes})"
        )


class ThreadIngest:
    """Thread-local ingest buffer feeding one ConcurrentQuantileFilter.

    Single-owner: exactly one thread inserts and flushes.  Arrays
    accumulate by reference until the filter's ``flush_items`` is
    reached — committing a short piece immediately would defeat the
    point of the buffer (each commit pays a fixed cost in hashing calls
    and locking, so pieces smaller than a chunk amortize it over
    full-size flushes).
    """

    __slots__ = ("filt", "_arrays", "_array_items")

    def __init__(self, filt: ConcurrentQuantileFilter):
        self.filt = filt
        #: Buffered (keys, values) array pairs, in arrival order.
        self._arrays: List = []
        self._array_items = 0

    def insert_many(self, keys, values) -> None:
        """Buffer whole arrays (by reference, zero copies).

        Flushes once the accumulated total reaches ``flush_items``;
        oversized inputs stream through in ``flush_items``-sized chunks.
        A rejected pair raises :class:`ParameterError` before anything
        is buffered, so the items already buffered stay pending.
        """
        keys = require_integer_keys(keys)
        values = np.asarray(values, dtype=np.float64)
        require_item_arrays(keys, values)
        if keys.shape[0] == 0:
            return
        self._arrays.append((keys, values))
        self._array_items += int(keys.shape[0])
        if self._array_items >= self.filt.flush_items:
            self.flush()

    def flush(self) -> None:
        """Commit all buffered items now (no-op when empty)."""
        if not self._arrays:
            return
        if len(self._arrays) == 1:
            keys, values = self._arrays[0]
        else:
            keys = np.concatenate([pair[0] for pair in self._arrays])
            values = np.concatenate([pair[1] for pair in self._arrays])
        self._arrays = []
        self._array_items = 0
        step = self.filt.flush_items
        for start in range(0, keys.shape[0], step):
            self.filt._flush(
                keys[start:start + step], values[start:start + step]
            )

    @property
    def pending(self) -> int:
        """Items buffered but not yet flushed."""
        return self._array_items

    def __enter__(self) -> "ThreadIngest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()


def replay_witness(
    segments: List[WitnessSegment], template: ConcurrentQuantileFilter
) -> BatchQuantileFilter:
    """Replay a witness log through a fresh single-thread batch filter.

    Segments are applied in commit-ticket order, each as one exact
    chunk pass.  Because the tickets follow the commit lock's order, the
    result is bit-identical to the concurrent filter's shared planes
    (see the module docstring and
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
    # Tally as the template does, so a filter observed from its first
    # commit on replays its hit/insert/swap tallies exactly too.
    replayed.stats_tallies = template.stats_tallies
    for segment in sorted(segments, key=lambda s: s.ticket):
        replayed._process_chunk(segment.keys, segment.values)
    return replayed
