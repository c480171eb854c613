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
  keeps a private buffer of arrays and flushes it at the filter's
  ``chunk_size`` items.  No shared state is touched per array, only per
  flush.
* **One commit lock** — a flush hashes its whole buffer outside the
  lock (with the compiled kernel,
  :func:`~repro.core.vectorized.qf_kernel_loaded`: one C call without
  the GIL), then, holding the lock, runs Algorithm 2 over the buffer in
  stream order, exactly as the batch engine commits one chunk: one C
  call, or the numpy two-tier pass
  (:meth:`~repro.core.vectorized.BatchQuantileFilter._classify_chunk`
  + the fast/scalar passes) without the kernel.  The filter *is* a
  batch filter, so its reports and tallies land where a batch filter's
  do, under the same lock.  Quancurrent's
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
* *General regime*: with a witness log (``witness = []``) every flush
  is appended as one segment, with the ``T`` it committed under, and
  every retarget as an empty segment carrying the new ``T``, both under
  the commit lock.  Replaying the segments in list order through a
  fresh single-thread batch filter (:func:`replay_witness`) reproduces
  the shared planes **bit-exactly**: the lock totally orders the
  commits and retargets, the list follows that order, and each commit
  is one exact chunk pass under the criteria in force when it commits
  (a retarget that lands between a flush's hashing and its commit
  makes the flush recompute its weights under the lock).

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

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.common.validation import require_integer_keys, require_item_arrays
from repro.core.criteria import Criteria
from repro.core.shape import shape_of
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.histogram import LogHistogram

_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)


@dataclass
class WitnessSegment:
    """One committed flush, or a retarget: an empty segment.

    ``ticket`` is the segment's position in the witness log, taken under
    the commit lock, so the log's order linearizes the concurrent
    execution (see the module docstring).  ``keys``/``values`` are
    private copies; ``threshold`` is the ``T`` the flush committed
    under, or the one the retarget moved to.
    """

    ticket: int
    keys: np.ndarray
    values: np.ndarray
    threshold: float


class ConcurrentQuantileFilter(BatchQuantileFilter):
    """A batch filter whose planes are shared by N updater threads.

    Construction is :class:`~repro.core.vectorized.BatchQuantileFilter`'s;
    ``chunk_size`` is the length of every :meth:`ingest` buffer's flush.
    One lock orders the commits, and :meth:`process` and
    :meth:`retarget` take it; every other read is the batch engine's.
    Set :attr:`witness` to ``[]`` to log every commit and retarget for
    :func:`replay_witness` (a verification aid that costs one array copy
    per flush).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Guards the planes, criteria, reports and tallies, plus the
        #: witness order.  One flush commits at a time.
        self._lock = threading.Lock()
        self.witness: Optional[List[WitnessSegment]] = None
        #: Commit-lock wait per flush (seconds), surfaced as the
        #: ``qf_lock_wait_seconds`` histogram by observe_filter.
        self.lock_wait = LogHistogram(min_value=1e-7, max_value=10.0)
        #: Flushes committed into the shared planes.
        self.thread_flushes = 0

    def ingest(self) -> "ThreadIngest":
        """A new thread-local ingest buffer bound to this filter.

        Each updater thread owns one; buffers are independent, so no
        two threads may share a :class:`ThreadIngest`.
        """
        return ThreadIngest(self)

    def process(self, keys: np.ndarray, values: np.ndarray) -> Set[int]:
        """Single-caller convenience: ingest + flush the whole stream.

        Feeds one :class:`ThreadIngest`, exactly as a lone updater
        thread would, so the stream commits in ``chunk_size`` chunks;
        returns a copy of the deduplicated reported keys.
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
        force when it commits, which its witness segment records.
        """
        if keys.shape[0] == 0:
            return
        witness = self.witness
        if witness is not None:
            # Private copies: the buffered arrays belong to the caller.
            keys, values = keys.copy(), values.copy()
        kernel = self._kernel()
        # Read before hashing reads T: a retarget after this read makes
        # the commit below recompute the weights.
        criteria = self.criteria
        fps, buckets, weights = self._hash(keys, values, kernel)
        wait_start = time.perf_counter()
        with self._lock:
            waited = time.perf_counter() - wait_start
            if self.criteria is not criteria:
                weights = self._item_weights(values)
            self._commit(kernel, keys, fps, buckets, weights)
            if witness is not None:
                witness.append(WitnessSegment(
                    len(witness), keys, values, self.criteria.threshold
                ))
            self.thread_flushes += 1
            self.lock_wait.record(waited)

    @property
    def reported_keys(self) -> Set[int]:
        """Deduplicated reported keys: a copy of the shared set.

        Lock-free: copying a set is one C call under the GIL, so it
        never sees a commit's insert half done.
        """
        return set(self._reported)

    def retarget(self, threshold: float) -> Criteria:
        """Move the value threshold ``T`` under the commit lock.

        A flush commits wholly under the old or wholly under the new
        criteria, exactly the batch engine's chunk-boundary retargeting
        contract: one that hashed under the old ``T`` and commits after
        the change recomputes its weights (:meth:`_flush`).  The witness
        log records the retarget as an empty segment.
        """
        with self._lock:
            criteria = super().retarget(threshold)
            witness = self.witness
            if witness is not None:
                witness.append(WitnessSegment(
                    len(witness), _NO_KEYS, _NO_VALUES, criteria.threshold
                ))
            return criteria


class ThreadIngest:
    """Thread-local ingest buffer feeding one ConcurrentQuantileFilter.

    Single-owner: exactly one thread inserts and flushes.  Arrays
    accumulate by reference until the filter's ``chunk_size`` is
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

        Flushes once the accumulated total reaches ``chunk_size``;
        oversized inputs stream through in ``chunk_size``-sized chunks.
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
        if self._array_items >= self.filt.chunk_size:
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
        step = self.filt.chunk_size
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

    The replay starts at the first flush's ``T`` and applies the
    segments in list order: each flush as one exact chunk pass, each
    empty segment as a retarget to its ``T``.  Because the list follows
    the commit lock's order, the result is bit-identical to the
    concurrent filter's shared planes (see the module docstring and
    ``tests/properties/test_property_concurrent_equivalence.py``).
    """
    threshold = next(
        (s.threshold for s in segments if s.keys.shape[0]),
        template.criteria.threshold,
    )
    replayed = BatchQuantileFilter(
        template.criteria.with_updates(threshold=threshold),
        chunk_size=template.chunk_size,
        **shape_of(template),
    )
    # Tally as the template does, so a filter observed from its first
    # commit on replays its hit/insert/swap tallies exactly too.
    replayed.stats_tallies = template.stats_tallies
    for segment in segments:
        if segment.keys.shape[0]:
            replayed._process_chunk(segment.keys, segment.values)
        else:
            replayed.retarget(segment.threshold)
    return replayed
