"""Per-seed references the engine runs are checked against (never timed).

Everything here is computed once per workload seed, before any timed
run:

* the controller's retarget schedule (monitored workloads) — the
  controller sees only the value stream, so every engine retargets at
  the same chunk boundaries to the same thresholds;
* the exact report set of the ground-truth oracle at the final
  threshold, which every engine's F1 is scored against;
* the report set ``batch`` must equal exactly: the scalar
  ``QuantileFilter(counter_kind="float")`` with the same seed, budget
  and retargets;
* the report set ``pipeline`` must equal exactly: the in-process
  ``ShardedQuantileFilter(engine="batch")`` at the same shard count and
  per-shard budget;
* one untimed batch-engine pass that measures the bytes the engine
  holds after the run and its event tallies (the regime shares).
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.ground_truth import GroundTruthDetector
from repro.parallel.sharded import ShardedQuantileFilter

from workloads import BUDGET_BYTES, Stream, make_control_loop


class _RetargetLog:
    """Control-loop target that only records the thresholds it is sent."""

    def __init__(self):
        self.thresholds: List[float] = []

    def retarget(self, threshold: float) -> None:
        self.thresholds.append(float(threshold))


def control_schedule(stream: Stream, seed: int) -> Dict[int, float]:
    """``{chunk index: new T}`` for every retarget the controller makes.

    The new threshold applies from the chunk after that index on, which
    is where every engine's control loop applies it.
    """
    log = _RetargetLog()
    loop = make_control_loop(stream.criteria, log, seed)
    schedule = {}
    for index, (_, values) in enumerate(stream.chunks):
        before = len(log.thresholds)
        loop.observe_many(values)
        if len(log.thresholds) > before:
            schedule[index] = log.thresholds[-1]
    return schedule


@dataclass
class Reference:
    schedule: Dict[int, float]
    final_criteria: Criteria
    truth: Set[int]
    batch_keys: Set[int]
    pipeline_keys: Set[int]
    #: Resolved per-shard geometry of the pipeline (from the reference).
    shard_buckets: int
    shard_width: int
    shard_bytes: int


def build_reference(stream: Stream, seed: int, workers: int,
                    monitored: bool) -> Reference:
    criteria = stream.criteria
    schedule = control_schedule(stream, seed) if monitored else {}
    scalar = QuantileFilter(
        criteria, BUDGET_BYTES, counter_kind="float", seed=seed
    )
    sharded = ShardedQuantileFilter(
        criteria, workers, engine="batch",
        memory_bytes=BUDGET_BYTES // workers, seed=seed,
    )
    for index, (keys, values) in enumerate(stream.chunks):
        scalar.insert_many(keys, values)
        sharded.process(keys, values)
        if index in schedule:
            scalar.retarget(schedule[index])
            sharded.retarget(schedule[index])
    final = scalar.criteria
    oracle = GroundTruthDetector(final)
    for key, value in zip(stream.keys.tolist(), stream.values.tolist()):
        oracle.process(key, value)
    shard = sharded.shards[0]
    return Reference(
        schedule=schedule,
        final_criteria=final,
        truth=set(oracle.reported_keys),
        batch_keys=set(scalar.reported_keys),
        pipeline_keys=set(sharded.reported_keys),
        shard_buckets=shard.num_buckets,
        shard_width=shard.width,
        shard_bytes=shard.nbytes,
    )


@dataclass
class BatchProbe:
    """What one untimed batch-engine pass measured."""

    state_bytes: int
    num_buckets: int
    width: int
    modelled_bytes: int
    hit_share: float
    vague_share: float


def held_bytes(root) -> int:
    """Bytes of every object reachable from ``root``, each counted once.

    ``sys.getsizeof`` over the live object graph (numpy arrays include
    the buffers they own).  On the churn and monitored-drift streams it
    agrees with ``tracemalloc`` around a whole run to within 0.1 %, at a
    fraction of the cost: tracing every allocation slows the batch
    engine's per-item tier about twenty-fold.
    """
    seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if not isinstance(obj, np.ndarray):
            stack.extend(gc.get_referents(obj))
    return total


def probe_batch(stream: Stream, seed: int,
                schedule: Dict[int, float]) -> BatchProbe:
    """Run the batch engine once, untimed, with its event tallies on.

    Gives the regime shares and the bytes the engine still holds once
    the run is over: planes, vague rows, report set and the rest.
    """
    filt = BatchQuantileFilter(stream.criteria, BUDGET_BYTES, seed=seed)
    filt.stats_tallies = True
    for index, (keys, values) in enumerate(stream.chunks):
        filt.process(keys, values)
        if index in schedule:
            filt.retarget(schedule[index])
    items = max(1, filt.items_processed)
    return BatchProbe(
        state_bytes=held_bytes(filt),
        num_buckets=filt.num_buckets,
        width=filt.width,
        modelled_bytes=filt.nbytes,
        hit_share=filt.candidate_hits / items,
        vague_share=filt.vague_inserts / items,
    )
