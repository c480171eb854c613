"""Unit tests for the thread-parallel shared-sketch engine.

Bit-exact equivalence against the batch engine is pinned by
``tests/properties/test_property_concurrent_equivalence.py`` and the
contention behaviour by ``test_concurrent_stress.py``; this file covers
the API surface — queries, snapshots, retargeting, ingest buffers,
validation — and ``ParallelPipeline(engine="threads")`` end to end.
"""

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.concurrent import (
    ConcurrentQuantileFilter,
    ThreadIngest,
)
from repro.parallel.pipeline import ParallelPipeline
from repro.parallel.sharded import batch_filter_to_scalar

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=128, vague_width=512, bucket_size=4, seed=3)


def _trace(n=20_000, seed=5):
    # Mostly sub-threshold noise over many keys, plus 20 hot keys whose
    # items sit far above T — those reliably accumulate Qweight.
    rng = np.random.default_rng(seed)
    keys = rng.integers(100, 2_000, size=n).astype(np.int64)
    values = rng.uniform(0, CRIT.threshold, n)
    hot = rng.random(n) < 0.05
    keys[hot] = rng.integers(0, 20, size=int(hot.sum()))
    values[hot] = 800.0
    return keys, values


def _fed(n=20_000, **overrides):
    params = {**GEOMETRY, **overrides}
    cqf = ConcurrentQuantileFilter(CRIT, **params)
    keys, values = _trace(n)
    cqf.process(keys, values)
    return cqf, keys, values


class TestReadPath:
    def test_query_matches_batch_twin(self):
        cqf, keys, values = _fed()
        twin = batch_filter_to_scalar(cqf.as_batch())
        for key in [int(keys[0]), 0, 123, 1_999]:
            assert cqf.query(key) == pytest.approx(twin.query(key))

    def test_reports_alias_and_dedup(self):
        cqf, _, _ = _fed()
        assert len(cqf.reported_keys) > 0
        per_stripe = [set(s.reported_keys) for s in cqf._sinks]
        assert sum(len(s) for s in per_stripe) == len(cqf.reported_keys)

    def test_accounting_proxies(self):
        cqf, keys, _ = _fed()
        assert cqf.items_processed == keys.shape[0]
        assert cqf.report_count >= len(cqf.reported_keys)
        assert cqf.thread_flushes > 0
        assert 0.0 <= cqf.occupancy() <= 1.0
        assert cqf.entry_count() > 0
        assert cqf.nbytes > 0
        assert cqf.candidate_hit_rate() >= 0.0


class TestSnapshots:
    def test_as_batch_is_independent(self):
        cqf, _, _ = _fed(n=5_000)
        twin = cqf.as_batch()
        before = twin.items_processed
        cqf.process(*_trace(n=1_000, seed=9))
        assert twin.items_processed == before  # frozen copy

    def test_as_batch_converts_to_scalar(self):
        cqf, _, _ = _fed(n=5_000)
        scalar = batch_filter_to_scalar(cqf.as_batch())
        assert scalar.reported_keys == cqf.reported_keys


class TestRetarget:
    def test_moves_threshold_and_counts(self):
        cqf, _, _ = _fed(n=2_000)
        new = cqf.retarget(250.0)
        assert new.threshold == 250.0
        assert cqf.criteria.threshold == 250.0
        assert cqf.retargets == 1
        cqf.process(*_trace(n=2_000, seed=10))  # still ingests fine


class TestThreadIngest:
    def test_buffers_until_flush_items(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        ingest = cqf.ingest(flush_items=10)
        for i in range(9):
            ingest.insert(i, 1.0)
        assert ingest.pending == 9
        assert cqf.items_processed == 0
        ingest.insert(9, 1.0)  # tenth item: auto-flush
        assert ingest.pending == 0
        assert cqf.items_processed == 10

    def test_context_manager_flushes_tail(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        with cqf.ingest(flush_items=100) as ingest:
            ingest.insert(1, 1.0)
        assert cqf.items_processed == 1

    def test_insert_many_streams_arrays(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, flush_items=64)
        keys, values = _trace(n=1_000)
        ingest = cqf.ingest()
        ingest.insert(7, 2.0)  # scalar buffer flushed first, in order
        ingest.insert_many(keys, values)
        assert cqf.items_processed == 1_001

    def test_matches_process(self):
        keys, values = _trace(n=8_000)
        via_process = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        via_process.process(keys, values)
        via_ingest = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        with via_ingest.ingest() as ingest:
            for key, value in zip(keys.tolist(), values.tolist()):
                ingest.insert(key, value)
        assert via_ingest.reported_keys == via_process.reported_keys


class TestValidation:
    def test_bad_num_stripes(self):
        with pytest.raises(ParameterError):
            ConcurrentQuantileFilter(CRIT, **GEOMETRY, num_stripes=0)

    def test_bad_flush_items(self):
        with pytest.raises(ParameterError):
            ConcurrentQuantileFilter(CRIT, **GEOMETRY, flush_items=0)

    def test_bad_ingest_flush_items(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        with pytest.raises(ParameterError):
            ThreadIngest(cqf, flush_items=0)

    def test_stripes_clamped_to_buckets(self):
        cqf = ConcurrentQuantileFilter(
            CRIT, num_buckets=4, vague_width=64, num_stripes=64
        )
        assert cqf.num_stripes == 4


class TestPipelineThreadsMode:
    def test_run_delivers_exactly_the_filters_reports(self):
        # Racing commits make the fringe of the report set
        # order-sensitive (the property suite pins the exact
        # linearization semantics); what the pipeline must guarantee is
        # transport integrity — every report the shared filter emitted
        # is delivered once — and that guaranteed detections fire.
        keys, values = _trace(n=60_000)
        pipe = ParallelPipeline(
            CRIT, 4, engine="threads", chunk_items=2_048, **GEOMETRY
        )
        result = pipe.run(keys, values)
        assert result.reported_keys == pipe.filter.reported_keys
        assert set(range(20)) <= result.reported_keys  # the hot keys
        assert result.items == keys.shape[0]

        single = BatchQuantileFilter(CRIT, **GEOMETRY)
        single.process(keys, values)
        assert set(range(20)) <= single.reported_keys

    def test_merged_view_and_stats(self):
        keys, values = _trace(n=30_000)
        pipe = ParallelPipeline(
            CRIT, 2, engine="threads", chunk_items=2_048,
            collect_stats=True, **GEOMETRY,
        )
        with pipe:
            pipe.feed(keys, values)
            stats = pipe.collect_stats_view()
            result = pipe.finish()
        assert stats["qf_items_total"] >= 0
        assert result.stats["qf_items_total"] == keys.shape[0]
        assert result.stats["qf_thread_flushes_total"] > 0
        merged = batch_filter_to_scalar(pipe.filter.as_batch())
        assert merged.reported_keys == result.reported_keys

    def test_retarget_rendezvous(self):
        keys, values = _trace(n=20_000)
        pipe = ParallelPipeline(
            CRIT, 2, engine="threads", chunk_items=1_024, **GEOMETRY
        )
        with pipe:
            pipe.feed(keys[:10_000], values[:10_000])
            new = pipe.retarget(500.0)
            assert new.threshold == 500.0
            pipe.feed(keys[10_000:], values[10_000:])
            result = pipe.finish()
        assert pipe.filter.criteria.threshold == 500.0
        assert result.items == keys.shape[0]

    def test_unsupported_feature_rejections(self):
        for kwargs in (
            dict(collect_trace=True),
            dict(collect_provenance=True),
            dict(incident_dir="/tmp"),
        ):
            with pytest.raises(ParameterError):
                ParallelPipeline(
                    CRIT, 2, engine="threads", **GEOMETRY, **kwargs
                )
