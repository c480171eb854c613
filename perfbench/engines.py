"""The three engines under test and the closed-loop client driving them.

* ``batch`` — :class:`~repro.core.vectorized.BatchQuantileFilter` on
  one core; the client calls ``process(chunk)``.
* ``threads`` — ``ParallelPipeline(engine="threads")``: updater threads
  sharing one ``ConcurrentQuantileFilter``.
* ``pipeline`` — ``ParallelPipeline(engine="batch", transport="shm")``:
  one worker process per shard, chunks over shared memory.

:func:`run_engine` is the load generator: one client in a closed loop
submits the next chunk when the previous submit returns (the pipeline's
bounded queues supply the backpressure).  On monitored workloads the
same client also drives the operator stack after each chunk: the
threshold control loop, and every :data:`~workloads.TICK_CHUNKS` chunks
one alerting tick.
"""

from __future__ import annotations

import gc
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set

from repro.core.vectorized import BatchQuantileFilter
from repro.metrics.accuracy import score_sets
from repro.observability.alerts import AlertEngine, default_rules
from repro.observability.instrument import observe_filter
from repro.observability.timeseries import MetricStore
from repro.parallel.pipeline import ParallelPipeline, ReportBatch

from layers import LayerProbe
from reference import Reference
from workloads import (
    BUDGET_BYTES,
    CHUNK_ITEMS,
    TICK_CHUNKS,
    Stream,
    Workload,
    make_control_loop,
)

ENGINE_NAMES = ("batch", "threads", "pipeline")

#: A submit that blocks longer than this counts as stalled (failed); the
#: pipelines raise ``PipelineStallError`` after the same time.
STALL_SECONDS = 10.0

#: Client-side steps of the closed loop, timed on every run.  Together
#: with the residual they account for the run's wall time.
CLIENT_STEPS = ("submit", "control", "tick", "finish")


@dataclass
class Context:
    """Everything an engine run needs, fixed for one invocation."""

    workload: Workload
    stream: Stream
    seed: int
    workers: int
    reference: Reference


@dataclass
class EngineRun:
    engine: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    chunks: int = 0
    failed_chunks: int = 0
    delays_s: List[float] = field(default_factory=list)
    f1: float = 0.0
    steps: Dict[str, float] = field(default_factory=dict)
    ticks: int = 0
    retargets: int = 0
    errors: List[str] = field(default_factory=list)
    #: Engine readings for the per-layer table (traced runs only).
    readings: Dict[str, float] = field(default_factory=dict)
    #: Layer probe counters over this run (traced runs only).
    calls: Dict[str, int] = field(default_factory=dict)
    busy: Dict[str, float] = field(default_factory=dict)
    #: Self time of the layers the client thread called between the
    #: first submit and ``finish()`` returning (traced runs only).
    client_self: Dict[str, float] = field(default_factory=dict)
    bytes: Dict[str, int] = field(default_factory=dict)
    items: int = 0

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s if self.wall_s > 0 else 0.0


class BatchEngine:
    """One-core batch engine; a report is seen when ``process`` returns."""

    def __init__(self, ctx: Context, instrumented: bool):
        self.filt = BatchQuantileFilter(
            ctx.stream.criteria, BUDGET_BYTES, seed=ctx.seed
        )
        self.registry = (
            observe_filter(self.filt)
            if instrumented or ctx.workload.monitored else None
        )
        self.control_target = self.filt
        self.delays: List[float] = []

    def submit(self, chunk_id: int, keys, values, submitted_at: float) -> None:
        reported = self.filt.reported_keys
        before = len(reported)
        self.filt.process(keys, values)
        if len(reported) > before:
            self.delays.append(perf_counter() - submitted_at)

    def stats_view(self) -> Dict[str, float]:
        return self.registry.snapshot()

    def finish(self) -> Set[int]:
        return self.filt.reported_keys

    def close(self) -> None:
        pass

    def check(self, ref: Reference, reported: Set[int]) -> List[str]:
        if reported != ref.batch_keys:
            return [
                f"batch reports {len(reported)} keys, scalar reference "
                f"{len(ref.batch_keys)} (symmetric difference "
                f"{len(reported ^ ref.batch_keys)})"
            ]
        return []

    def readings(self) -> Dict[str, float]:
        filt = self.filt
        return {
            "items": filt.items_processed,
            "candidate_hits": filt.candidate_hits,
            "vague_inserts": filt.vague_inserts,
            "swaps": filt.swaps,
            "reports": filt.report_count,
        }


class PipelineEngine:
    """``threads`` or ``pipeline``: reports arrive as ``ReportBatch``es.

    A report is seen when the pipeline releases its batch to
    ``on_reports``; its delay counts from the submit of the batch's
    chunk.  The final-flush batches (``chunk_id == -1``) carry no
    submit time and are not sampled.
    """

    def __init__(self, name: str, ctx: Context, instrumented: bool):
        self.name = name
        self.threads = name == "threads"
        self.criteria = ctx.stream.criteria
        monitored = ctx.workload.monitored
        options = (
            dict(engine="threads", memory_bytes=BUDGET_BYTES)
            if self.threads else
            dict(engine="batch", transport="shm",
                 memory_bytes=BUDGET_BYTES // ctx.workers)
        )
        self.pipe = ParallelPipeline(
            ctx.stream.criteria,
            ctx.workers,
            chunk_items=CHUNK_ITEMS,
            seed=ctx.seed,
            stall_timeout=STALL_SECONDS,
            collect_stats=instrumented or monitored,
            on_reports=self._on_reports,
            **options,
        )
        #: Witness log of the shared filter (threads, instrumented
        #: runs): each retarget splits it into epochs so it can be
        #: replayed exactly.
        self.epochs: List = []
        if self.threads and instrumented:
            self._record_witness()
        self.submitted_at = [0.0] * len(ctx.stream.chunks)
        self.delays: List[float] = []
        self.batches: List[ReportBatch] = []
        self.result = None
        self.control_target = self.pipe
        self.pipe.start()

    def _record_witness(self) -> None:
        filt = self.pipe.filter
        filt.witness = []
        retarget = filt.retarget

        def retarget_at_barrier(threshold):
            # Called inside the pipeline's retarget barrier: every
            # updater thread has flushed and is parked, so the witness
            # length is an exact epoch boundary.
            self.epochs.append((len(filt.witness), float(threshold)))
            return retarget(threshold)

        filt.retarget = retarget_at_barrier

    def _on_reports(self, batch: ReportBatch) -> None:
        self.batches.append(batch)
        if batch.chunk_id >= 0 and batch.keys:
            self.delays.append(
                perf_counter() - self.submitted_at[batch.chunk_id]
            )

    def submit(self, chunk_id: int, keys, values, submitted_at: float) -> None:
        self.submitted_at[chunk_id] = submitted_at
        self.pipe.feed(keys, values)

    def stats_view(self) -> Dict[str, float]:
        return self.pipe.collect_stats_view()

    def finish(self) -> Set[int]:
        self.result = self.pipe.finish()
        return self.result.reported_keys

    def close(self) -> None:
        self.pipe.close()

    def check(self, ref: Reference, reported: Set[int]) -> List[str]:
        errors = []
        delivered: Set[int] = set()
        duplicated = 0
        for batch in self.batches:
            duplicated += len(delivered.intersection(batch.keys))
            delivered.update(batch.keys)
        if duplicated:
            errors.append(f"{self.name}: {duplicated} keys delivered twice")
        if delivered != reported:
            errors.append(
                f"{self.name}: delivered batches hold {len(delivered)} keys, "
                f"the result {len(reported)}"
            )
        if self.threads:
            shared = self.pipe.filter.reported_keys
            if shared != reported:
                errors.append(
                    f"threads: shared filter holds {len(shared)} reported "
                    f"keys, the result {len(reported)}"
                )
            if self.pipe.filter.witness is not None:
                replayed = self._replay_witness()
                if replayed != shared:
                    errors.append(
                        f"threads: witness replay reports {len(replayed)} "
                        f"keys, the shared filter {len(shared)}"
                    )
        elif reported != ref.pipeline_keys:
            errors.append(
                f"pipeline reports {len(reported)} keys, sharded reference "
                f"{len(ref.pipeline_keys)} (symmetric difference "
                f"{len(reported ^ ref.pipeline_keys)})"
            )
        return errors

    def _replay_witness(self) -> Set[int]:
        """``replay_witness`` with the run's retargets between epochs.

        Segments inside one epoch are applied in commit-ticket order as
        exact chunk passes; each retarget moves the replayed filter's
        threshold at the epoch boundary it was applied at.
        """
        filt = self.pipe.filter
        replayed = BatchQuantileFilter(
            self.criteria,
            num_buckets=filt.num_buckets,
            vague_width=filt.width,
            bucket_size=filt.bucket_size,
            depth=filt.depth,
            fp_bits=filt.fp_bits,
            strategy=filt.strategy.name,
            seed=filt.seed,
        )
        segments = filt.witness
        begin = 0
        for end, threshold in self.epochs + [(len(segments), None)]:
            for segment in sorted(segments[begin:end], key=lambda s: s.ticket):
                replayed.process(segment.keys, segment.values)
            if threshold is not None:
                replayed.retarget(threshold)
            begin = end
        return set(replayed.reported_keys)

    def readings(self) -> Dict[str, float]:
        result = self.result
        stats = result.stats or {}
        out: Dict[str, float] = {
            "chunks": result.chunks,
            "per_shard_items_max": max(result.per_shard_items),
            "per_shard_items_mean": (
                sum(result.per_shard_items) / len(result.per_shard_items)
            ),
        }
        if self.threads:
            lock_wait = self.pipe.filter.lock_wait
            out["thread_flushes"] = stats.get("qf_thread_flushes_total", 0.0)
            out["lock_wait_s"] = lock_wait.total
            out["lock_wait_p99_s"] = lock_wait.percentile(99)
        else:
            delay = self.pipe.stats.histogram(
                "pipeline_report_queue_delay_seconds"
            ).data
            out["worker_insert_s"] = stats.get(
                "worker_insert_seconds_sum", 0.0
            )
            out["report_queue_delay_p50_s"] = delay.percentile(50)
            out["report_queue_delay_p90_s"] = delay.percentile(90)
        return out


class OperatorStack:
    """Threshold controller plus alerting ticks beside ingest."""

    def __init__(self, ctx: Context, engine):
        self.engine = engine
        self.loop = make_control_loop(
            ctx.stream.criteria, engine.control_target, ctx.seed
        )
        self.store = MetricStore()
        self.alerts = AlertEngine(self.store, default_rules())
        self.ticks = 0

    def control(self, values) -> None:
        self.loop.observe_many(values)

    def tick(self) -> None:
        self.store.collect(self.engine.stats_view())
        self.alerts.evaluate()
        self.ticks += 1


def run_engine(name: str, ctx: Context,
               probe: Optional[LayerProbe] = None,
               instrumented: bool = False) -> EngineRun:
    """One closed-loop run of engine ``name`` over the whole stream.

    An ``instrumented`` run records what the traced run reads: the
    filter's event tallies, the pipelines' ``collect_stats`` telemetry
    and the threads engine's witness log.  With a ``probe`` the run is
    also traced: the probe's shims are installed for the run, and the
    client steps are recorded as spans too.
    """
    traced = probe is not None
    instrumented = instrumented or traced
    chunks = ctx.stream.chunks
    run = EngineRun(engine=name, chunks=len(chunks),
                    items=ctx.stream.items)
    steps = dict.fromkeys(CLIENT_STEPS, 0.0)
    tracer = probe.tracer if traced else None
    engine = None
    setup_self: Dict[str, float] = {}
    gc.collect()
    if traced:
        probe.reset()
        probe.install()
    try:
        began = perf_counter()
        engine = (
            BatchEngine(ctx, instrumented) if name == "batch"
            else PipelineEngine(name, ctx, instrumented)
        )
        operator = (
            OperatorStack(ctx, engine) if ctx.workload.monitored else None
        )
        run.setup_s = perf_counter() - began
        if traced:
            setup_self = dict(probe.client_self)

        start = perf_counter()
        for index, (keys, values) in enumerate(chunks):
            t0 = perf_counter()
            engine.submit(index, keys, values, t0)
            t1 = perf_counter()
            steps["submit"] += t1 - t0
            if t1 - t0 > STALL_SECONDS:
                run.failed_chunks += 1
            if tracer is not None:
                tracer.add_span(f"{name}.submit", t0, t1, cat="client",
                                args={"chunk": index})
            if operator is None:
                continue
            operator.control(values)
            t2 = perf_counter()
            steps["control"] += t2 - t1
            if tracer is not None:
                tracer.add_span(f"{name}.control", t1, t2, cat="client")
            if (index + 1) % TICK_CHUNKS == 0:
                operator.tick()
                t3 = perf_counter()
                steps["tick"] += t3 - t2
                if tracer is not None:
                    tracer.add_span(f"{name}.tick", t2, t3, cat="client")
        t0 = perf_counter()
        reported = engine.finish()
        end = perf_counter()
        steps["finish"] = end - t0
        if tracer is not None:
            tracer.add_span(f"{name}.finish", t0, end, cat="client")
        run.wall_s = end - start
    except Exception:  # the run failed; record it and let the others go on
        run.errors.append(traceback.format_exc())
        run.failed_chunks = run.chunks
        if engine is not None:
            engine.close()
        return run
    finally:
        if traced:
            probe.uninstall()
            run.calls = dict(probe.calls)
            run.busy = dict(probe.busy)
            run.bytes = dict(probe.bytes)
            run.client_self = {
                layer: seconds - setup_self.get(layer, 0.0)
                for layer, seconds in probe.client_self.items()
            }

    run.steps = steps
    run.delays_s = list(engine.delays)
    run.f1 = score_sets(reported, ctx.reference.truth).f1
    if operator is not None:
        run.ticks = operator.ticks
        run.retargets = operator.loop.retargets
    run.errors.extend(engine.check(ctx.reference, reported))
    if run.errors:
        run.failed_chunks = run.chunks
    if traced:
        run.readings = engine.readings()
    return run
