"""Multiprocessing pipeline feeding stream chunks to shard workers.

One worker process per shard, each owning a private shard filter (batch
engine by default).  The master slices the stream into chunks, routes
each chunk's items to their owning shards (:class:`~repro.parallel.
sharded.ShardRouter` — the same bucket-affine partition the in-process
:class:`~repro.parallel.sharded.ShardedQuantileFilter` uses, so both
paths report identical key sets), and collects newly-reported keys
through a **bounded** result queue.

Chunk transport: every worker owns a :mod:`multiprocessing.
shared_memory` slot ring (:class:`~repro.parallel.transport.
ShmSlotRing`).  The master copies each chunk slice into a free slot and
sends only a ``("chunk", chunk_id, slot_id, length)`` descriptor; the
worker reads the slot zero-copy, and the slot credit returns on the
worker's report ack.

Requests: stats views and the thread engine's retarget barrier go to
every worker as ``(kind, sync_id, *args)`` behind the chunks already
queued, and every worker answers ``("reply", sync_id, shard_id,
payload)``.

Consistency model (also documented in ``docs/operations.md``):

* Within a shard, reports follow stream order — each worker consumes
  its chunks strictly in sequence.
* Report batches surface as the master drains them (shard
  interleaving is nondeterministic, contents are not).

Telemetry: built with ``collect_stats=True``, every worker attaches a
:class:`~repro.observability.registry.StatsRegistry` to its shard
filter (:func:`~repro.observability.instrument.observe_filter`).
Per-shard snapshots ride the worker queues — on demand
(:meth:`ParallelPipeline.collect_stats_view`) and with the final
``done`` messages — and aggregate master-side into
``PipelineResult.stats`` / ``per_shard_stats`` alongside the master's
own ``pipeline_*`` counters (chunks/items fed, batches released, queue
depths, worker liveness).  See ``docs/observability.md``.

Tracing & provenance: ``collect_trace=True`` attaches a
:class:`~repro.observability.tracing.Tracer` to the master (feed and
collect spans) and one to every worker (queue-wait and insert
spans, plus sampled filter-core instants on the scalar engine); worker
events ride the ``done`` messages and fold into one Chrome-trace
timeline in ``PipelineResult.trace_events``.  ``collect_provenance=
True`` (scalar engine only) makes every worker report carry a
:class:`~repro.observability.provenance.ReportProvenance` audit record,
returned JSON-ready in ``PipelineResult.report_records``.  Lifecycle
events log structurally through the ``repro.pipeline`` stdlib logger
(see :func:`repro.observability.logs.configure_json_logging`).

Failure model: every blocking queue operation is bounded by timeouts
and interleaved with worker liveness checks.  A worker that dies
(crash, OOM-kill) surfaces as :class:`WorkerCrashError`; a worker that
raises ships its traceback back as :class:`WorkerFailedError`; a stall
longer than ``stall_timeout`` raises :class:`PipelineStallError`.  In
all cases the pipeline terminates remaining workers — it never hangs
(``tests/integration/test_parallel_stack.py``).
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import ReproError, ParameterError
from repro.common.memory import sizeof_counter
from repro.common.validation import require_integer_keys, require_item_arrays
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.shape import BATCH_COUNTER_BYTES, resolve_shape
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.instrument import observe_filter
from repro.observability.provenance import provenance_record
from repro.observability.registry import StatsRegistry, aggregate_snapshots
from repro.observability.tracing import Tracer, attach_filter_tracing
from repro.parallel.concurrent import ConcurrentQuantileFilter
from repro.parallel.sharded import ENGINES, ShardRouter
from repro.parallel.transport import ShmSlotRing

#: Lifecycle logger (silent unless the host configures a handler, e.g.
#: repro.observability.logs.configure_json_logging for JSON lines).
LOGGER = logging.getLogger("repro.pipeline")

#: Default items per pipeline chunk.
DEFAULT_CHUNK_ITEMS = 16_384

#: Bound (in chunks) of each worker's input queue; the shared result
#: queue is bounded proportionally.  Backpressure, not unbounded
#: buffering.
QUEUE_CAPACITY = 4

#: Engines the pipeline can run: the process-per-shard engines plus the
#: in-process thread engine (one shared
#: :class:`~repro.parallel.concurrent.ConcurrentQuantileFilter`, one
#: updater thread per "shard", no chunk transport at all).
PIPELINE_ENGINES = ENGINES + ("threads",)


class PipelineError(ReproError):
    """Base class of pipeline failure modes."""


class WorkerCrashError(PipelineError):
    """A worker process died without reporting (killed / crashed)."""


class WorkerFailedError(PipelineError):
    """A worker raised; carries the remote traceback text."""


class PipelineStallError(PipelineError):
    """No progress within ``stall_timeout`` seconds."""


@dataclass
class ReportBatch:
    """Newly-reported keys from one (chunk, shard) work unit; never empty."""

    chunk_id: int
    shard_id: int
    keys: List


@dataclass
class PipelineResult:
    """Outcome of one pipeline run."""

    reported_keys: Set
    items: int
    seconds: float
    num_shards: int
    chunks: int
    per_shard_items: List[int]
    per_shard_reports: List[int]
    #: Aggregated telemetry snapshot (worker registries summed per the
    #: metric aggregation rules, plus the master's pipeline_* samples).
    #: None unless the pipeline ran with ``collect_stats=True``.
    stats: Optional[Dict[str, float]] = None
    #: One snapshot dict per shard, in shard order (collect_stats only).
    per_shard_stats: Optional[List[Dict[str, float]]] = None
    #: Chrome trace events (master + workers, one timeline).  None
    #: unless the pipeline ran with ``collect_trace=True``.
    trace_events: Optional[List[dict]] = None
    #: JSON-ready report/provenance records in per-shard arrival order.
    #: None unless the pipeline ran with ``collect_provenance=True``.
    report_records: Optional[List[dict]] = None

    @property
    def mops(self) -> float:
        """Million items per second of wall time."""
        if self.seconds <= 0:
            return float("inf")
        return self.items / self.seconds / 1e6


def _build_worker_filter(config: dict, on_report=None):
    if config["engine"] == "batch":
        return BatchQuantileFilter(config["criteria"], **config["shape"])
    return QuantileFilter(
        config["criteria"],
        counter_kind="float",
        collect_provenance=bool(config.get("provenance")),
        on_report=on_report,
        **config["shape"],
    )


def _worker_main(
    shard_id: int, in_queue, out_queue, config: dict, ring_info: Tuple
) -> None:
    """Worker loop: build the shard filter, consume chunks until stop."""
    ring = None
    try:
        engine = config["engine"]
        ring = ShmSlotRing.attach(*ring_info)
        report_records: Optional[List[dict]] = (
            [] if config.get("provenance") else None
        )
        on_report = (
            report_records.append if report_records is not None else None
        )
        if on_report is not None:
            raw_append = on_report

            def on_report(report, _append=raw_append):  # noqa: F811
                _append(provenance_record(report))

        filt = _build_worker_filter(config, on_report=on_report)
        tracer = None
        if config.get("trace"):
            tracer = Tracer(capacity=config.get("trace_capacity", 65_536))
            if engine == "scalar":
                attach_filter_tracing(
                    filt, tracer,
                    sample_every=config.get("trace_sample_every", 64),
                )
        registry = chunk_counter = insert_hist = None
        if config.get("stats"):
            registry = observe_filter(filt)
            chunk_counter = registry.counter(
                "worker_chunks_total",
                help="Chunks this shard worker has consumed.",
            )
            insert_hist = registry.histogram(
                "worker_insert_seconds",
                help="Per-chunk shard insert latency (batch insert time).",
            )
            if tracer is not None:
                registry.counter_fn(
                    "tracer_dropped_events_total",
                    lambda: tracer.dropped,
                    help="Trace events dropped by a full ring buffer.",
                    labels={"role": f"shard-{shard_id}"},
                )
        known: Set = set()
        while True:
            if tracer is not None:
                wait_start = time.perf_counter()
                message = in_queue.get()
                tracer.add_span(
                    "shard_queue_wait", wait_start, time.perf_counter(),
                    args={"shard": shard_id},
                )
            else:
                message = in_queue.get()
            kind = message[0]
            if kind == "chunk":
                # Descriptor-only message: the slice sits in this
                # worker's shared-memory slot; an empty slice consumes
                # no slot (slot_id == -1).
                _, chunk_id, slot_id, length = message
                if length:
                    keys, values = ring.read(slot_id, length)
                    insert_start = time.perf_counter()
                    if engine == "batch":
                        filt.process(keys, values)
                    else:
                        filt.insert_many(keys, values)
                    insert_end = time.perf_counter()
                    if insert_hist is not None:
                        insert_hist.record(insert_end - insert_start)
                    if tracer is not None:
                        tracer.add_span(
                            "shard_insert", insert_start, insert_end,
                            args={
                                "shard": shard_id,
                                "chunk": chunk_id,
                                "items": length,
                            },
                        )
                if chunk_counter is not None:
                    chunk_counter.inc()
                fresh = filt.reported_keys - known
                known |= fresh
                # The ack carries the slot credit back to the master:
                # once this message is posted the slot may be reused.
                out_queue.put(
                    ("reports", chunk_id, shard_id, list(fresh),
                     time.perf_counter(), slot_id)
                )
            elif kind == "retarget":
                # Rides the same FIFO as the chunks, so the new T takes
                # effect at a consistent between-chunks cut per shard.
                _, new_threshold = message
                filt.retarget(new_threshold)
            elif kind == "stop":
                final_stats = (
                    registry.snapshot() if registry is not None else None
                )
                trace_events = (
                    tracer.chrome_events() if tracer is not None else None
                )
                out_queue.put(
                    ("done", shard_id, filt.items_processed,
                     filt.report_count, final_stats, trace_events,
                     report_records)
                )
                return
            elif kind == "stats":
                # A master request: (kind, sync_id), see
                # ParallelPipeline._request.
                payload = registry.snapshot() if registry is not None else {}
                out_queue.put(("reply", message[1], shard_id, payload))
            else:
                raise ParameterError(f"unknown worker message {kind!r}")
    except Exception:
        out_queue.put(("error", shard_id, traceback.format_exc()))
    finally:
        if ring is not None:
            ring.close()


def _thread_worker_main(
    shard_id: int,
    in_queue,
    out_queue,
    filt: ConcurrentQuantileFilter,
    known: Set,
    known_lock,
) -> None:
    """Updater-thread loop for ``engine="threads"``.

    Same message protocol as the process workers, minus transport:
    chunk arrays arrive by reference through a plain ``queue.Queue``
    and flush straight into the shared filter via a thread-local
    :class:`~repro.parallel.concurrent.ThreadIngest`.  Fresh-report
    extraction diffs the shared report set against a shared ``known``
    set under ``known_lock`` — each reported key is claimed by exactly
    one thread, so batches never duplicate a key.  The diff (a copy of
    the shared report set) only runs when the filter's report count
    moved since this thread last looked, and empty batches post no
    message at all: with no shm slot to hand back, the master needs no
    per-chunk ack.
    """
    try:
        ingest = filt.ingest()
        items = 0
        claimed = 0
        seen_reports = 0
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "chunk":
                _, chunk_id, keys, values = message
                if keys.shape[0]:
                    ingest.insert_many(keys, values)
                    items += int(keys.shape[0])
                fresh = ()
                count = filt.report_count
                if count != seen_reports:
                    seen_reports = count
                    with known_lock:
                        fresh = filt.reported_keys - known
                        known |= fresh
                if fresh:
                    claimed += len(fresh)
                    out_queue.put(
                        ("reports", chunk_id, shard_id, list(fresh),
                         time.perf_counter(), -1)
                    )
            elif kind == "barrier":
                # Retarget rendezvous: flush, reply (the master drains
                # while it waits, so a full queue cannot deadlock it),
                # park until the master has applied the new T on the
                # shared filter.
                _, sync_id, release = message
                ingest.flush()
                out_queue.put(("reply", sync_id, shard_id, None))
                release.wait()
            elif kind == "stop":
                ingest.flush()
                with known_lock:
                    fresh = filt.reported_keys - known
                    known |= fresh
                if fresh:
                    claimed += len(fresh)
                    out_queue.put(
                        ("reports", -1, shard_id, list(fresh),
                         time.perf_counter(), -1)
                    )
                out_queue.put(
                    ("done", shard_id, items, claimed, None, None, None)
                )
                return
            else:  # pragma: no cover - defensive
                raise ParameterError(f"unknown worker message {kind!r}")
    except Exception:
        out_queue.put(("error", shard_id, traceback.format_exc()))


class ParallelPipeline:
    """Process-per-shard QuantileFilter pipeline over integer-keyed streams.

    ``engine="threads"`` swaps the process workers for updater threads
    sharing one :class:`~repro.parallel.concurrent.
    ConcurrentQuantileFilter` (exposed as :attr:`filter`): same
    ``feed``/``finish``/``retarget`` API, but chunks cross no process
    boundary at all — no shared-memory ring, no per-chunk copy, and no
    master-side key hashing either: whole chunks go to one updater
    round-robin, because the shared filter's commit lock makes
    any-thread/any-key safe (see the equal-core head-to-head in
    ``benchmarks/test_throughput_smoke.py``).  Tracing and provenance
    stay process-engine features and raise ``ParameterError`` up
    front.

    Use as a one-shot ``run(keys, values)`` or stream explicitly::

        pipe = ParallelPipeline(criteria, 4, num_buckets=4096,
                                vague_width=2048)
        pipe.start()
        for chunk_keys, chunk_values in chunks:
            pipe.feed(chunk_keys, chunk_values)
        result = pipe.finish()

    Parameters
    ----------
    memory_bytes:
        Byte budget of **each** shard's filter: every worker process
        allocates the full ``memory_bytes``, so ``num_shards`` workers
        hold ``num_shards`` times it.  Under ``engine="threads"`` it is
        the budget of the one shared filter.  Alternatively pass
        explicit ``num_buckets`` and ``vague_width``.  Either way the
        master resolves the shape once
        (:func:`~repro.core.shape.resolve_shape`) and every shard's
        filter is built from it, with ``bucket_size`` slots per bucket
        and the default depth, fingerprint width and strategy.
    transport:
        Only ``"shm"`` (the default) is accepted: process workers
        receive chunk slices through a shared-memory slot ring (see
        ``docs/performance.md``).
    chunk_items:
        Items per chunk fed to the workers (also the shm slot size).
    on_reports:
        Callback receiving each :class:`ReportBatch` as the master
        drains it.  Work units that reported no fresh key release no
        batch.
    """

    def __init__(
        self,
        criteria: Criteria,
        num_shards: int,
        *,
        engine: str = "batch",
        memory_bytes: Optional[int] = None,
        num_buckets: Optional[int] = None,
        vague_width: Optional[int] = None,
        bucket_size: int = 6,
        seed: int = 0,
        transport: str = "shm",
        chunk_items: int = DEFAULT_CHUNK_ITEMS,
        stall_timeout: float = 30.0,
        collect_stats: bool = False,
        collect_trace: bool = False,
        collect_provenance: bool = False,
        trace_sample_every: int = 64,
        on_reports: Optional[Callable[[ReportBatch], None]] = None,
    ):
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if engine not in PIPELINE_ENGINES:
            raise ParameterError(
                f"unknown engine {engine!r}; choose from {PIPELINE_ENGINES}"
            )
        self._threads = engine == "threads"
        if self._threads and collect_trace:
            raise ParameterError(
                "engine='threads' does not support collect_trace: the "
                "per-worker trace hooks are a process-engine feature — "
                "use engine='batch' or engine='scalar' for it"
            )
        if transport != "shm":
            raise ParameterError(
                f"transport must be 'shm', got {transport!r}: the pickle "
                "transport was removed (shm delivers the same chunks "
                "faster)"
            )
        if chunk_items < 1:
            raise ParameterError(f"chunk_items must be >= 1, got {chunk_items}")
        if trace_sample_every < 1:
            raise ParameterError(
                f"trace_sample_every must be >= 1, got {trace_sample_every}"
            )
        if collect_provenance and engine != "scalar":
            raise ParameterError(
                "collect_provenance needs engine='scalar': the batch "
                "engine tracks reported keys, not Report objects"
            )
        self.criteria = criteria
        self.num_shards = num_shards
        self.engine = engine
        self.chunk_items = chunk_items
        self.stall_timeout = stall_timeout
        self.collect_stats = collect_stats
        self.collect_trace = collect_trace
        self.collect_provenance = collect_provenance
        #: Master tracer; worker spans fold into it at finish().
        self.tracer: Optional[Tracer] = Tracer() if collect_trace else None
        self._on_reports = on_reports

        # Resolve the shape once in the master, with the counter cost
        # of the filter each shard runs, then build every shard's filter
        # from it so every process agrees exactly.
        shape_buckets, shape_width = resolve_shape(
            memory_bytes, num_buckets, vague_width,
            counter_bytes=(
                sizeof_counter("float") if engine == "scalar"
                else BATCH_COUNTER_BYTES
            ),
            bucket_size=bucket_size,
        )
        shape = dict(num_buckets=shape_buckets, vague_width=shape_width,
                     bucket_size=bucket_size, seed=seed)
        self.filter: Optional[ConcurrentQuantileFilter] = None
        self._filter_registry = None
        if self._threads:
            # One structure, built here, updated in place by every
            # worker thread.
            self.filter = ConcurrentQuantileFilter(
                criteria, chunk_size=chunk_items, **shape
            )
            if collect_stats:
                self._filter_registry = observe_filter(self.filter)
        self._config = dict(
            criteria=criteria,
            engine=engine,
            shape=shape,
            stats=collect_stats,
            trace=collect_trace,
            trace_sample_every=trace_sample_every,
            provenance=collect_provenance,
        )
        self.router = ShardRouter(num_shards, shape_buckets, seed=seed)
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )

        self.workers: List = []
        self._in_queues: List = []
        self._out_queue = None
        # Shared-memory transport state (process engines): one slot
        # ring per shard plus the master-side free-slot credits.
        self._rings: Optional[List[ShmSlotRing]] = None
        self._free_slots: List[List[int]] = []
        self._started = False
        self._finished = False
        self._chunk_id = 0
        self._sync_id = 0
        self.items_fed = 0
        # Collection state.
        self._reported: Set = set()
        # shard -> (items, reports, stats, trace_events, report_records)
        self._done: Dict[int, Tuple] = {}
        # sync_id -> {shard_id: payload} for every request kind.
        self._replies: Dict[int, Dict[int, object]] = {}

        # Master-side telemetry: always registered (the counters are a
        # few adds per *chunk*, not per item), rendered by repro stats.
        self.stats = StatsRegistry()
        self._chunks_counter = self.stats.counter(
            "pipeline_chunks_fed_total",
            help="Chunks sliced off the stream and dispatched to workers.",
        )
        self._items_counter = self.stats.counter(
            "pipeline_items_fed_total",
            help="Items dispatched to workers.",
        )
        self._batch_counter = self.stats.counter(
            "pipeline_report_batches_total",
            help="Report batches released to the caller (each carries "
                 "at least one fresh key).",
        )
        self._stat_views_counter = self.stats.counter(
            "pipeline_stats_views_total",
            help="Telemetry views collected from worker registries.",
        )
        self._retargets_counter = self.stats.counter(
            "pipeline_retargets_total",
            help="Threshold retargets broadcast to all shard workers.",
        )
        self.stats.gauge_fn(
            "qf_threshold",
            lambda: self.criteria.threshold,
            help="Value threshold T currently in force.",
            agg="mean",
        )
        self.stats.gauge_fn(
            "pipeline_reported_keys",
            lambda: len(self._reported),
            help="Distinct keys reported across all shards so far.",
        )
        self.stats.gauge_fn(
            "pipeline_workers_alive",
            lambda: sum(1 for w in self.workers if w.is_alive()),
            help="Shard worker processes currently alive.",
        )
        # Report queue delay: stamped by the worker at put() time,
        # measured when the master drains the message.  Mergeable log
        # buckets, so `repro stats` can print a cross-run p99.
        self._queue_delay_hist = self.stats.histogram(
            "pipeline_report_queue_delay_seconds",
            help="Delay between a worker posting a chunk's reports (an "
            "empty ack too) and the master draining it.",
        )
        if self.tracer is not None:
            self.stats.counter_fn(
                "tracer_dropped_events_total",
                lambda: self.tracer.dropped,
                help="Trace events dropped by a full ring buffer.",
                labels={"role": "master"},
            )
        self.last_stats: Optional[Dict[str, float]] = None
        self.last_per_shard_stats: Optional[List[Dict[str, float]]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ParallelPipeline":
        """Spawn the shard workers; idempotent until :meth:`finish`."""
        if self._started:
            return self
        if self._threads:
            # In-process queues: a multiprocessing queue would pickle
            # every chunk the updater threads receive by reference.
            make_queue, make_worker = queue_module.Queue, threading.Thread
            target = _thread_worker_main
            # Every updater shares the filter, the known-report set and
            # the lock guarding that set.
            shared = (self.filter, set(), threading.Lock())
            worker_args = [shared] * self.num_shards
        else:
            make_queue, make_worker = self._ctx.Queue, self._ctx.Process
            target = _worker_main
            # QUEUE_CAPACITY chunks may sit in the input queue plus one
            # in flight in the worker and one being written by the
            # master — hence capacity + 2 slots can never wrap onto a
            # slot a worker still reads.
            num_slots = QUEUE_CAPACITY + 2
            self._rings = [
                ShmSlotRing.create(num_slots, self.chunk_items)
                for _ in range(self.num_shards)
            ]
            self._free_slots = [
                list(range(num_slots)) for _ in range(self.num_shards)
            ]
            worker_args = [
                (self._config, (ring.name, ring.num_slots, ring.slot_items))
                for ring in self._rings
            ]
        self._out_queue = make_queue(
            maxsize=max(8, 2 * self.num_shards * QUEUE_CAPACITY)
        )
        for shard_id, extra_args in enumerate(worker_args):
            in_queue = make_queue(maxsize=QUEUE_CAPACITY)
            worker = make_worker(
                target=target,
                args=(shard_id, in_queue, self._out_queue) + extra_args,
                daemon=True,
                name=f"qf-{self.engine}-{shard_id}",
            )
            worker.start()
            self._in_queues.append(in_queue)
            self.workers.append(worker)
            self.stats.gauge_fn(
                "pipeline_queue_depth",
                (lambda s=shard_id: self._queue_depth(s)),
                help="Chunks waiting in this shard's input queue.",
                labels={"shard": str(shard_id)},
            )
        self._started = True
        LOGGER.info(
            "pipeline started",
            extra={
                "event": "start",
                "shards": self.num_shards,
                "engine": self.engine,
                "chunk_items": self.chunk_items,
                "trace": self.collect_trace,
                "provenance": self.collect_provenance,
            },
        )
        return self

    def _queue_depth(self, shard_id: int) -> int:
        """Best-effort input-queue depth (0 where qsize is unsupported)."""
        if shard_id >= len(self._in_queues):
            return 0
        try:
            return self._in_queues[shard_id].qsize()
        except (NotImplementedError, OSError, ValueError):
            return 0

    def __enter__(self) -> "ParallelPipeline":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def feed(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Slice a stream segment into chunks and dispatch them."""
        if self._finished:
            raise PipelineError(
                "pipeline already finished; build a new ParallelPipeline "
                "to process another stream"
            )
        keys = require_integer_keys(keys)
        values = np.asarray(values, dtype=np.float64)
        require_item_arrays(keys, values)
        if not self._started:
            self.start()
        feed_start = time.perf_counter() if self.tracer is not None else 0.0
        first_chunk = self._chunk_id
        for start in range(0, keys.shape[0], self.chunk_items):
            chunk_keys = keys[start:start + self.chunk_items]
            chunk_values = values[start:start + self.chunk_items]
            chunk_id = self._chunk_id
            self._chunk_id += 1
            if self._threads:
                # The shared filter accepts any key from any thread
                # (its commit lock owns correctness), so threads mode
                # needs no key hashing at all: hand the whole chunk to
                # one updater round-robin.  One queue put per chunk
                # instead of num_shards, and the master never touches
                # the key array.
                self._put(
                    chunk_id % self.num_shards,
                    ("chunk", chunk_id, chunk_keys, chunk_values),
                )
            else:
                slices = self.router.split(chunk_keys, chunk_values)
                # Every shard gets a (possibly empty) slice of every
                # chunk, so worker_chunks_total counts every chunk on
                # every shard.
                for shard_id, (sub_keys, sub_values) in enumerate(slices):
                    length = int(sub_keys.shape[0])
                    slot_id = -1
                    if length:
                        slot_id = self._acquire_slot(shard_id)
                        self._rings[shard_id].write(
                            slot_id, sub_keys, sub_values
                        )
                    self._put(shard_id, ("chunk", chunk_id, slot_id, length))
            self.items_fed += int(chunk_keys.shape[0])
            self._chunks_counter.inc()
            self._items_counter.inc(int(chunk_keys.shape[0]))
        if self.tracer is not None:
            self.tracer.add_span(
                "pipeline_feed", feed_start, time.perf_counter(),
                args={
                    "items": int(keys.shape[0]),
                    "chunks": self._chunk_id - first_chunk,
                },
            )

    def retarget(self, threshold: float) -> Criteria:
        """Broadcast a value-threshold change to every shard worker.

        The adaptive-threshold control path for pipelines
        (:class:`~repro.detection.threshold.ThresholdControlLoop`).
        The message rides each worker's input queue *behind* any chunks
        already enqueued — the same delivery rule as stats requests —
        so every shard applies the change at a consistent between-chunks
        cut and no chunk ever sees a mid-chunk swap.  Shard state
        (candidate entries, vague counters, report history) is
        preserved.

        The master's own criteria move too, and the change shows up in
        telemetry as ``pipeline_retargets_total`` and the
        ``qf_threshold`` gauge.  Returns the new criteria.
        """
        if self._finished:
            raise PipelineError(
                "pipeline already finished; cannot retarget"
            )
        if not self._started:
            self.start()
        self.criteria = self.criteria.with_updates(threshold=float(threshold))
        if self._threads:
            # Rendezvous: every thread flushes its ingest buffer, replies
            # and parks; the master applies the retarget once on the
            # shared filter, then releases the threads.  No chunk flush
            # straddles the swap.
            release = threading.Event()
            try:
                self._request("barrier", release)
                self.filter.retarget(float(threshold))
            finally:
                release.set()
        else:
            for shard_id in range(self.num_shards):
                self._put(shard_id, ("retarget", float(threshold)))
        self._retargets_counter.inc()
        LOGGER.info(
            "threshold retargeted",
            extra={
                "event": "retarget",
                "threshold": float(threshold),
                "items_fed": self.items_fed,
            },
        )
        return self.criteria

    def finish(self) -> PipelineResult:
        """Stop the workers, drain all results, and join cleanly."""
        if self._finished:
            raise PipelineError("pipeline already finished")
        if not self._started:
            raise PipelineError("pipeline was never started")
        start_wall = time.perf_counter()
        try:
            for shard_id in range(self.num_shards):
                self._put(shard_id, ("stop",))
            collect_start = (
                time.perf_counter() if self.tracer is not None else 0.0
            )
            self._wait_for(
                lambda: len(self._done) == self.num_shards, "worker shutdown"
            )
            self._drain(block=False)  # late stragglers (per-worker FIFO)
            for worker in self.workers:
                worker.join(timeout=self.stall_timeout)
            if self.tracer is not None:
                self.tracer.add_span(
                    "pipeline_collect", collect_start, time.perf_counter(),
                    args={"shards": self.num_shards},
                )
            per_items = [self._done[s][0] for s in range(self.num_shards)]
            per_reports = [self._done[s][1] for s in range(self.num_shards)]
            per_stats = aggregate = None
            if self.collect_stats:
                if self._threads:
                    per_stats = [self._filter_registry.snapshot()]
                else:
                    per_stats = [
                        self._done[s][2] for s in range(self.num_shards)
                    ]
                aggregate = self._aggregate_worker_stats(per_stats)
            trace_events = None
            if self.tracer is not None:
                for shard_id in range(self.num_shards):
                    self.tracer.extend(self._done[shard_id][3] or [])
                trace_events = self.tracer.chrome_events()
            report_records = None
            if self.collect_provenance:
                report_records = []
                for shard_id in range(self.num_shards):
                    report_records.extend(self._done[shard_id][4] or [])
            result = PipelineResult(
                reported_keys=set(self._reported),
                items=self.items_fed,
                seconds=time.perf_counter() - start_wall,
                num_shards=self.num_shards,
                chunks=self._chunk_id,
                per_shard_items=per_items,
                per_shard_reports=per_reports,
                stats=aggregate,
                per_shard_stats=per_stats,
                trace_events=trace_events,
                report_records=report_records,
            )
            self._finished = True
            LOGGER.info(
                "pipeline finished",
                extra={
                    "event": "finish",
                    "items": result.items,
                    "chunks": result.chunks,
                    "reported_keys": len(result.reported_keys),
                    "seconds": round(result.seconds, 6),
                    "trace_events": (
                        len(trace_events) if trace_events is not None else 0
                    ),
                    "report_records": (
                        len(report_records)
                        if report_records is not None else 0
                    ),
                },
            )
            return result
        finally:
            self.close()

    def run(self, keys: np.ndarray, values: np.ndarray) -> PipelineResult:
        """One-shot convenience: start, feed everything, finish.

        ``result.seconds`` covers the whole run including worker
        start-up and shutdown — the honest parallel-throughput number.
        """
        start_wall = time.perf_counter()
        try:
            self.start()
            self.feed(keys, values)
            result = self.finish()
        finally:
            self.close()
        result.seconds = time.perf_counter() - start_wall
        return result

    def close(self) -> None:
        """Terminate any still-running workers and release the queues.

        Safe to call multiple times and from error paths; after a clean
        :meth:`finish` it only reaps already-exited processes.
        """
        if self._threads:
            # Daemon threads cannot be terminated; nudge any that are
            # still parked on their queue with a stop and give them a
            # moment — after a clean finish they are already gone.
            for in_queue in self._in_queues:
                try:
                    in_queue.put_nowait(("stop",))
                except queue_module.Full:  # pragma: no cover - stalled
                    pass
            for worker in self.workers:
                if worker.is_alive():
                    worker.join(timeout=1.0)
            self._in_queues = []
            self._out_queue = None
            return
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=5.0)
        for in_queue in self._in_queues:
            in_queue.cancel_join_thread()
            in_queue.close()
        if self._out_queue is not None:
            self._out_queue.cancel_join_thread()
            self._out_queue.close()
        if self._rings is not None:
            # Workers are gone (terminated/joined above): unmap and
            # destroy the shared blocks — the master owns both steps.
            for ring in self._rings:
                ring.close()
                ring.unlink()
            self._rings = None
            self._free_slots = []
        self._in_queues = []
        self._out_queue = None

    @property
    def reported_keys(self) -> Set:
        """Copy of the distinct keys reported across all shards so far."""
        return set(self._reported)

    @property
    def running(self) -> bool:
        """Whether the pipeline is between :meth:`start` and :meth:`finish`."""
        return self._started and not self._finished

    # ------------------------------------------------------------------
    # master-side plumbing
    # ------------------------------------------------------------------
    def _put(self, shard_id: int, message) -> None:
        """Bounded put with result draining and liveness checks.

        Draining while blocked on a full input queue is what prevents
        the classic feeder/collector deadlock: the worker may itself be
        blocked putting results into the bounded result queue.  Every
        put also drains first.  In threads mode no slot credit forces a
        drain, so without this one a full result queue would park the
        updaters until a put timed out (0.1 s).  Between two drains at
        most ``num_shards * (QUEUE_CAPACITY + 1)`` chunks complete, fewer
        than the result queue holds.
        """
        self._drain(block=False)
        deadline = time.monotonic() + self.stall_timeout
        while True:
            try:
                self._in_queues[shard_id].put(message, timeout=0.1)
                return
            except queue_module.Full:
                if self._drain(block=False):
                    deadline = time.monotonic() + self.stall_timeout
                self._check_workers()
                if time.monotonic() > deadline:
                    self._fail(
                        PipelineStallError(
                            f"shard {shard_id} accepted no work for "
                            f"{self.stall_timeout}s"
                        )
                    )

    def _wait_for(self, ready: Callable[[], bool], what: str) -> None:
        """Drain results until ``ready()`` holds: the one stall policy.

        Every blocking wait on the workers (request replies, slot
        credits, the final ``done`` messages) runs here.  Draining
        while waiting is what keeps a worker blocked on the bounded
        result queue from deadlocking the master; each drained message
        counts as progress and re-arms the ``stall_timeout`` deadline.
        """
        deadline = time.monotonic() + self.stall_timeout
        while not ready():
            if self._drain(block=True):
                deadline = time.monotonic() + self.stall_timeout
            else:
                self._check_workers()
                if time.monotonic() > deadline:
                    self._fail(
                        PipelineStallError(
                            f"no progress on {what} for "
                            f"{self.stall_timeout}s"
                        )
                    )

    def _request(self, kind: str, *args) -> List:
        """Send ``(kind, sync_id, *args)`` to every worker; gather replies.

        The request rides each worker's input queue behind the chunks
        already enqueued, so every reply describes a consistent
        between-chunks cut.  Returns the payloads in shard order.
        """
        sync_id = self._sync_id
        self._sync_id += 1
        for shard_id in range(self.num_shards):
            self._put(shard_id, (kind, sync_id) + args)
        self._wait_for(
            lambda: len(self._replies.get(sync_id, ())) == self.num_shards,
            f"{kind} request {sync_id}",
        )
        replies = self._replies.pop(sync_id)
        return [replies[shard_id] for shard_id in range(self.num_shards)]

    def _acquire_slot(self, shard_id: int) -> int:
        """Pop a free shm slot for ``shard_id``, draining acks while dry.

        Slot credits come back on the result queue, so waiting here
        without draining would deadlock against a worker blocked on
        that same queue.
        """
        free = self._free_slots[shard_id]
        self._wait_for(lambda: free, f"shard {shard_id} slot credit")
        return free.pop()

    def _drain(self, block: bool) -> bool:
        """Move every available result message into master state.

        Returns True when at least one message was consumed.
        """
        consumed = False
        while True:
            try:
                message = self._out_queue.get(timeout=0.1 if block else 0.0)
            except queue_module.Empty:
                return consumed
            consumed = True
            block = False  # only block for the first message
            kind = message[0]
            if kind == "reports":
                _, chunk_id, shard_id, keys, posted_at, slot_id = message
                if slot_id >= 0:
                    self._free_slots[shard_id].append(slot_id)
                self._queue_delay_hist.record(
                    max(0.0, time.perf_counter() - posted_at)
                )
                # A process worker acks every chunk to hand its slot
                # back; only acks that carry keys become batches.
                if keys:
                    self._reported.update(keys)
                    self._emit(ReportBatch(
                        chunk_id=chunk_id, shard_id=shard_id, keys=keys
                    ))
            elif kind == "reply":
                _, sync_id, shard_id, payload = message
                self._replies.setdefault(sync_id, {})[shard_id] = payload
            elif kind == "done":
                (_, shard_id, items, reports, stats_snap, trace_events,
                 report_records) = message
                self._done[shard_id] = (
                    items, reports, stats_snap, trace_events, report_records
                )
            elif kind == "error":
                _, shard_id, tb_text = message
                LOGGER.error(
                    "worker raised",
                    extra={"event": "worker_error", "shard": shard_id},
                )
                self._fail(
                    WorkerFailedError(
                        f"shard {shard_id} worker raised:\n{tb_text}"
                    )
                )

    def _emit(self, batch: ReportBatch) -> None:
        self._batch_counter.inc()
        if self._on_reports is not None:
            self._on_reports(batch)

    def collect_stats_view(self) -> Dict[str, float]:
        """Pull a live telemetry view from every worker registry.

        The request rides each worker's input queue, so every per-shard
        snapshot is a consistent between-chunks cut.  Returns the
        aggregate snapshot (worker samples combined per their
        aggregation rules, overlaid with the master's ``pipeline_*``
        samples); also kept as :attr:`last_stats`.  Requires
        ``collect_stats=True``.
        """
        if not self.collect_stats:
            raise PipelineError(
                "pipeline was built without collect_stats=True; worker "
                "registries are not recording"
            )
        if not self._started:
            raise PipelineError("pipeline is not running")
        if self._threads:
            # One registry observes the one shared filter; its pull
            # gauges read plain attributes, so no worker round-trip is
            # needed.
            per_shard = [self._filter_registry.snapshot()]
        else:
            per_shard = self._request("stats")
        self._stat_views_counter.inc()
        return self._aggregate_worker_stats(per_shard)

    def _aggregate_worker_stats(
        self, per_shard: List[Dict[str, float]]
    ) -> Dict[str, float]:
        aggregate = aggregate_snapshots(per_shard)
        aggregate.update(self.stats.snapshot())
        self.last_stats = aggregate
        self.last_per_shard_stats = [dict(view) for view in per_shard]
        return aggregate

    def _check_workers(self) -> None:
        """Raise (after cleanup) when any unfinished worker is dead."""
        for shard_id, worker in enumerate(self.workers):
            if shard_id in self._done or worker.is_alive():
                continue
            # One last drain: the worker may have parked an error or its
            # done message in the result queue just before exiting.
            self._drain(block=False)
            if shard_id in self._done:
                continue
            if self._threads:
                self._fail(
                    WorkerCrashError(
                        f"updater thread {shard_id} died before finishing"
                    )
                )
            self._fail(
                WorkerCrashError(
                    f"shard {shard_id} worker (pid {worker.pid}) died with "
                    f"exitcode {worker.exitcode} before finishing"
                )
            )

    def _fail(self, error: PipelineError) -> None:
        LOGGER.error(
            "pipeline failing",
            extra={
                "event": "fail",
                "error_type": type(error).__name__,
            },
        )
        self.close()
        raise error
