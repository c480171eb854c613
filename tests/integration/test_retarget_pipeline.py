"""Retarget broadcast across the process pipeline.

The acceptance scenario for the adaptive-threshold loop on the
parallel stack: a mid-stream ``retarget(T2)`` must reach every shard
worker at a consistent between-chunks cut, produce exactly the reports
the deterministic in-process sharded filter produces under the same
retarget, and show up in every shard's stats view and the aggregate
telemetry.
"""

import numpy as np
import pytest

from repro.core.criteria import Criteria
from repro.parallel.pipeline import ParallelPipeline, PipelineError
from repro.parallel.sharded import ShardedQuantileFilter
from repro.streams.caida_like import CaidaLikeConfig, generate_caida_like_trace

CRITERIA = Criteria(delta=0.95, threshold=200.0, epsilon=30.0)
GEOMETRY = dict(num_buckets=512, vague_width=256, seed=0)
CHUNK = 8_192
NEW_T = 340.0


@pytest.fixture(scope="module")
def trace():
    return generate_caida_like_trace(
        CaidaLikeConfig(num_items=120_000, num_keys=3_000, seed=2)
    )


def test_pipeline_retarget_matches_inprocess_sharding(trace):
    split = 6 * CHUNK  # chunk-aligned so both sides cut at a boundary

    sharded = ShardedQuantileFilter(CRITERIA, 4, engine="batch", **GEOMETRY)
    expected = set(sharded.process(trace.keys[:split], trace.values[:split]))
    sharded.retarget(NEW_T)
    expected |= sharded.process(trace.keys[split:], trace.values[split:])

    pipe = ParallelPipeline(
        CRITERIA, 4, engine="batch", chunk_items=CHUNK, **GEOMETRY
    )
    with pipe:
        pipe.feed(trace.keys[:split], trace.values[:split])
        pipe.retarget(NEW_T)
        pipe.feed(trace.keys[split:], trace.values[split:])
        result = pipe.finish()

    assert pipe.criteria.threshold == NEW_T
    assert result.reported_keys == sharded.reported_keys
    assert result.reported_keys == expected


def test_retarget_reaches_merged_view_and_telemetry(trace):
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", chunk_items=CHUNK,
        collect_stats=True, **GEOMETRY,
    )
    with pipe:
        pipe.feed(trace.keys[:2 * CHUNK], trace.values[:2 * CHUNK])
        pipe.retarget(NEW_T)
        pipe.feed(trace.keys[2 * CHUNK:4 * CHUNK],
                  trace.values[2 * CHUNK:4 * CHUNK])
        stats = pipe.collect_stats_view()
        pipe.finish()

    # Stats requests ride the same per-shard FIFO as the retarget, so
    # every shard's view already carries the new threshold.
    assert [view["qf_threshold"] for view in pipe.last_per_shard_stats] \
        == [NEW_T, NEW_T]
    assert stats["pipeline_retargets_total"] == 1.0
    assert stats["qf_threshold"] == pytest.approx(NEW_T)
    assert stats["qf_retargets_total"] == 2.0  # one per shard, summed


def test_retarget_before_start_autostarts_and_after_finish_raises(trace):
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", chunk_items=CHUNK, **GEOMETRY
    )
    try:
        pipe.retarget(NEW_T)
        assert pipe.running
        pipe.feed(trace.keys[:CHUNK], trace.values[:CHUNK])
        pipe.finish()
    finally:
        pipe.close()
    with pytest.raises(PipelineError):
        pipe.retarget(500.0)


def test_sharded_facade_broadcasts_to_every_shard():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 100, size=5_000).astype(np.int64)
    values = rng.uniform(0.0, 400.0, size=5_000)
    for engine in ("scalar", "batch"):
        sharded = ShardedQuantileFilter(CRITERIA, 3, engine=engine,
                                        **GEOMETRY)
        sharded.process(keys, values)
        sharded.retarget(NEW_T)
        assert sharded.criteria.threshold == NEW_T
        assert sharded.retargets == 1
        for shard in sharded.shards:
            assert shard.criteria.threshold == NEW_T
        merged = sharded.merged()
        assert merged.criteria.threshold == NEW_T
