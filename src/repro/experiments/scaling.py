"""Scaling study: how the accuracy-memory transition moves with stream size.

The paper's sweeps run on 20M+-item traces; this reproduction defaults
to tens of thousands.  The claim that makes the small-scale results
transferable is that the accuracy-vs-memory *transition region* scales
with the workload (more precisely, with the key count and the residual
Qweight mass), not with any absolute byte value.  This driver measures
that directly: for a ladder of stream scales it finds the smallest
QuantileFilter budget reaching an F1 target, so the transition's
movement is a measured curve rather than an assumption.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.experiments.config import build_trace, default_criteria_for
from repro.experiments.harness import (
    FigureResult,
    RunRecord,
    build_detector,
    ground_truth_for,
    run_detection,
)
from repro.metrics.accuracy import score_sets
from repro.metrics.throughput import (
    ShardScalingPoint,
    ThroughputResult,
    scaling_table,
)


def minimal_budget_for_f1(
    trace,
    criteria,
    truth,
    f1_target: float,
    dataset: str,
    seed: int = 0,
    low: int = 256,
    high: int = 1 << 22,
) -> Optional[RunRecord]:
    """Smallest power-of-two-ish budget whose F1 meets the target.

    Geometric scan (factor 2) from ``low``; returns the first qualifying
    run's record, or None if even ``high`` fails.
    """
    budget = low
    while budget <= high:
        detector = build_detector("quantilefilter", criteria, budget, seed=seed)
        record = run_detection(
            detector, trace, truth,
            dataset=dataset, memory_bytes=budget, algorithm="quantilefilter",
        )
        if record.score.f1 >= f1_target:
            return record
        budget *= 2
    return None


def scaling_study(
    dataset: str = "internet",
    scales: Sequence[int] = (5_000, 10_000, 20_000, 40_000, 80_000),
    f1_target: float = 0.95,
    seed: int = 0,
) -> FigureResult:
    """Minimal QF budget to reach ``f1_target`` at each stream scale."""
    records: List[RunRecord] = []
    criteria = default_criteria_for(dataset)
    for scale in scales:
        trace = build_trace(dataset, scale=scale, seed=seed)
        truth = ground_truth_for(trace, criteria)
        record = minimal_budget_for_f1(
            trace, criteria, truth, f1_target, dataset, seed=seed
        )
        if record is None:
            continue
        record.extra["scale"] = scale
        record.extra["distinct_keys"] = trace.distinct_keys
        record.extra["truth_keys"] = len(truth)
        record.extra["bytes_per_key"] = round(
            record.memory_bytes / trace.distinct_keys, 3
        )
        records.append(record)
    return FigureResult(
        figure="scaling-study",
        description=f"Minimal QF budget for F1 >= {f1_target} vs stream "
        f"scale on {dataset}",
        records=records,
    )


def shard_ladder(max_shards: int) -> List[int]:
    """Shard counts to sweep: powers of two up to and incl. ``max_shards``."""
    ladder = []
    shards = 1
    while shards < max_shards:
        ladder.append(shards)
        shards *= 2
    ladder.append(max_shards)
    return ladder


def parallel_scaling_study(
    dataset: str = "internet",
    scale: int = 40_000,
    seed: int = 0,
    max_shards: int = 4,
    engine: str = "batch",
    processes: bool = False,
    num_buckets: int = 4_096,
    vague_width: int = 2_048,
) -> FigureResult:
    """Sharded-filter throughput and accuracy vs shard count.

    For every shard count on the ladder the same trace runs through a
    :class:`~repro.parallel.sharded.ShardedQuantileFilter` (in-process;
    deterministic timing) and, with ``processes=True``, additionally
    through the worker-process :class:`~repro.parallel.pipeline.
    ParallelPipeline` — the configuration the ``--shards`` CLI flag
    exercises.  Records carry F1 against the exact ground truth plus
    the speedup/efficiency columns of
    :func:`repro.metrics.throughput.scaling_table`.
    """
    from repro.core.vectorized import qf_kernel_loaded
    from repro.parallel.pipeline import ParallelPipeline
    from repro.parallel.sharded import ShardedQuantileFilter

    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    truth = ground_truth_for(trace, criteria)
    geometry = dict(num_buckets=num_buckets, vague_width=vague_width, seed=seed)
    if engine == "batch":
        # Build or load the compiled kernel before the first timed run,
        # which would time that one-time load; forked pipeline workers
        # inherit it.
        qf_kernel_loaded()

    records: List[RunRecord] = []
    points: List[ShardScalingPoint] = []
    for shards in shard_ladder(max_shards):
        if processes:
            pipeline = ParallelPipeline(
                criteria, shards, engine=engine, **geometry
            )
            outcome = pipeline.run(trace.keys, trace.values)
            reported, seconds = outcome.reported_keys, outcome.seconds
            nbytes = 0
        else:
            sharded = ShardedQuantileFilter(
                criteria, shards, engine=engine, counter_kind="float",
                **geometry,
            )
            start = time.perf_counter()
            reported = sharded.process(trace.keys, trace.values)
            seconds = time.perf_counter() - start
            nbytes = sharded.nbytes
        points.append(
            ShardScalingPoint(
                shards=shards,
                throughput=ThroughputResult(items=len(trace), seconds=seconds),
            )
        )
        records.append(
            RunRecord(
                algorithm=f"qf-sharded-{engine}",
                dataset=dataset,
                memory_bytes=0,
                actual_bytes=nbytes,
                score=score_sets(reported, truth),
                seconds=seconds,
                items=len(trace),
                extra={
                    "shards": shards,
                    "backend": "processes" if processes else "inprocess",
                },
            )
        )
    for record, row in zip(records, scaling_table(points)):
        record.extra["speedup"] = round(row["speedup"], 3)
        record.extra["efficiency"] = round(row["efficiency"], 3)
    return FigureResult(
        figure="parallel-scaling",
        description=(
            f"Sharded QuantileFilter ({engine} engine, "
            f"{'worker processes' if processes else 'in-process'}) "
            f"throughput vs shard count on {dataset}"
        ),
        records=records,
    )
