"""Parallel and sharded QuantileFilter deployments.

Three layers:

* :class:`~repro.parallel.sharded.ShardedQuantileFilter` — in-process
  bucket-affine sharding: N full-geometry shard filters behind one
  filter-shaped façade, with a merge-based global view.
* :class:`~repro.parallel.pipeline.ParallelPipeline` — a
  ``multiprocessing`` pipeline placing one shard per worker process,
  with bounded queues and crash surfacing.
* :class:`~repro.parallel.concurrent.ConcurrentQuantileFilter` — a
  :class:`~repro.core.vectorized.BatchQuantileFilter` whose planes N
  threads update through thread-local ingest buffers, each flush
  committed under one lock (the Quancurrent direction);
  ``ParallelPipeline(engine="threads")`` runs it behind the same
  pipeline API with zero chunk transport.

The first two share one partition rule (:class:`~repro.parallel.sharded.
ShardRouter`), so the process-backed pipeline reports exactly the same
key set as the in-process sharded filter, which in turn matches a
single scalar filter whenever the candidate part never overflows (see
``tests/parallel/test_shard_equivalence.py`` and the consistency-model
notes in ``docs/operations.md``).  The threads engine partitions
nothing: every updater commits into the one shared filter.
"""

from repro.parallel.sharded import (
    ENGINES,
    ShardRouter,
    ShardedQuantileFilter,
)
from repro.parallel.concurrent import (
    ConcurrentQuantileFilter,
    ThreadIngest,
    replay_witness,
)
from repro.parallel.pipeline import (
    DEFAULT_CHUNK_ITEMS,
    PIPELINE_ENGINES,
    ParallelPipeline,
    PipelineError,
    PipelineResult,
    PipelineStallError,
    ReportBatch,
    WorkerCrashError,
    WorkerFailedError,
)

__all__ = [
    "ENGINES",
    "ConcurrentQuantileFilter",
    "ThreadIngest",
    "replay_witness",
    "PIPELINE_ENGINES",
    "ShardRouter",
    "ShardedQuantileFilter",
    "DEFAULT_CHUNK_ITEMS",
    "ParallelPipeline",
    "PipelineError",
    "PipelineResult",
    "PipelineStallError",
    "ReportBatch",
    "WorkerCrashError",
    "WorkerFailedError",
]
