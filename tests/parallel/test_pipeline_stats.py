"""Pipeline telemetry: aggregate == fold of per-shard registries.

The contract under test is the one ``docs/observability.md`` documents:
with ``collect_stats=True`` every shard worker carries its own
:class:`~repro.observability.StatsRegistry`, the master aggregates the
per-shard snapshots (counters sum, ratio gauges average), and the
result of a run exposes both views.  The 50k-item run here is the
acceptance scenario from the issue: aggregate counters must equal the
arithmetic sum of the per-shard registries, exactly.
"""

import numpy as np
import pytest

from repro.core.criteria import Criteria
from repro.observability.instrument import _MEAN_GAUGES, FILTER_METRIC_HELP
from repro.observability.registry import base_name
from repro.parallel.pipeline import (
    PIPELINE_ENGINES,
    ParallelPipeline,
    PipelineError,
)

CRIT = Criteria(delta=0.9, threshold=120.0, epsilon=5.0)
N_ITEMS = 50_000
NUM_SHARDS = 4


def _trace(n, seed=11):
    rng = np.random.default_rng(seed)
    keys = rng.zipf(1.3, size=n).astype(np.int64) % 5_000
    values = rng.exponential(60.0, size=n)
    return keys, values


@pytest.fixture(scope="module")
def stats_run():
    keys, values = _trace(N_ITEMS)
    pipe = ParallelPipeline(
        CRIT,
        NUM_SHARDS,
        num_buckets=512,
        vague_width=256,
        chunk_items=8_192,
        collect_stats=True,
    )
    with pipe:
        pipe.feed(keys, values)
        result = pipe.finish()
    return result


class TestAggregateEqualsShardSum:
    def test_shard_count_and_presence(self, stats_run):
        assert stats_run.stats is not None
        assert stats_run.per_shard_stats is not None
        assert len(stats_run.per_shard_stats) == NUM_SHARDS

    def test_counters_sum_exactly(self, stats_run):
        agg, shards = stats_run.stats, stats_run.per_shard_stats
        summed = set()
        for sample in shards[0]:
            family = base_name(sample)
            if not family.endswith("_total"):
                continue
            expected = sum(s[sample] for s in shards)
            assert agg[sample] == expected, sample
            summed.add(sample)
        assert "qf_items_total" in summed
        assert 'qf_reports_total{source="candidate"}' in summed

    def test_items_conserved(self, stats_run):
        assert stats_run.stats["qf_items_total"] == float(N_ITEMS)
        assert stats_run.stats["qf_items_total"] == float(stats_run.items)

    def test_mean_gauges_average(self, stats_run):
        agg, shards = stats_run.stats, stats_run.per_shard_stats
        for family in _MEAN_GAUGES & set(map(base_name, shards[0])):
            expected = sum(s[family] for s in shards) / len(shards)
            assert agg[family] == pytest.approx(expected), family

    def test_reports_flow_under_this_criteria(self, stats_run):
        # Guard against the vacuous-pass failure mode: the scenario is
        # tuned so reports actually happen.
        agg = stats_run.stats
        total_reports = (agg['qf_reports_total{source="candidate"}']
                         + agg['qf_reports_total{source="vague"}'])
        assert total_reports >= 1.0
        assert agg["qf_reported_keys"] >= 1.0

    def test_master_metrics_overlay(self, stats_run):
        agg = stats_run.stats
        assert agg["pipeline_items_fed_total"] == float(N_ITEMS)
        assert agg["pipeline_chunks_fed_total"] >= 1.0
        assert agg["pipeline_workers_alive"] == 0.0  # post-finish
        assert agg["pipeline_reported_keys"] >= 1.0

    def test_every_documented_filter_family_appears(self, stats_run):
        families = set(map(base_name, stats_run.stats))
        # Window and thread-engine families only exist for those
        # filter kinds; a process pipeline legitimately lacks them.
        expected = {
            name for name in FILTER_METRIC_HELP
            if not name.startswith(("qf_window", "qf_thread"))
        }
        assert expected <= families


class TestLiveView:
    def test_mid_run_view_is_consistent_cut(self):
        keys, values = _trace(20_000, seed=3)
        pipe = ParallelPipeline(
            CRIT, 2, num_buckets=512, vague_width=256,
            chunk_items=4_096, collect_stats=True,
        )
        with pipe:
            pipe.feed(keys[:10_000], values[:10_000])
            view = pipe.collect_stats_view()
            assert view["qf_items_total"] == 10_000.0
            assert view["pipeline_stats_views_total"] == 1.0
            assert view["pipeline_workers_alive"] == 2.0
            assert pipe.last_stats is view
            pipe.feed(keys[10_000:], values[10_000:])
            result = pipe.finish()
        assert result.stats["qf_items_total"] == 20_000.0
        assert result.stats["pipeline_stats_views_total"] == 1.0

    def test_view_requires_collect_stats(self):
        pipe = ParallelPipeline(CRIT, 2, num_buckets=64, vague_width=64)
        with pytest.raises(PipelineError):
            pipe.collect_stats_view()

    def test_view_requires_started_pipeline(self):
        pipe = ParallelPipeline(CRIT, 2, num_buckets=64, vague_width=64,
                                collect_stats=True)
        with pytest.raises(PipelineError):
            pipe.collect_stats_view()


class TestStatsOff:
    def test_default_run_carries_no_stats(self):
        keys, values = _trace(5_000, seed=5)
        pipe = ParallelPipeline(CRIT, 2, num_buckets=256, vague_width=128,
                                chunk_items=2_048)
        with pipe:
            pipe.feed(keys, values)
            result = pipe.finish()
        assert result.stats is None
        assert result.per_shard_stats is None


class TestReportBatches:
    @pytest.mark.parametrize("engine", PIPELINE_ENGINES)
    def test_every_released_batch_carries_keys(self, engine):
        # A process worker acks every (chunk, shard) to hand its shm
        # slot back; the master must not turn the empty acks into
        # batches, so the counter counts exactly what the caller got.
        keys, values = _trace(60_000, seed=3)
        batches = []
        pipe = ParallelPipeline(
            CRIT, 2, engine=engine, num_buckets=256, vague_width=128,
            chunk_items=2_000, collect_stats=True, on_reports=batches.append,
        )
        with pipe:
            pipe.feed(keys, values)
            result = pipe.finish()
        assert batches
        assert all(batch.keys for batch in batches)
        assert result.stats["pipeline_report_batches_total"] == len(batches)
        released = {key for batch in batches for key in batch.keys}
        assert released == result.reported_keys
        # Every ack is still timed: a process worker posts one per chunk
        # and shard, the threads engine only the ones with keys.
        acks = len(batches) if engine == "threads" else 30 * 2
        assert result.stats["pipeline_report_queue_delay_seconds_count"] == (
            acks
        )
