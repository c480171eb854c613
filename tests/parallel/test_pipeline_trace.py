"""Integration: tracing, provenance and latency histograms through the
multiprocess pipeline.

These tests run real worker processes, mirroring how ``repro trace``
exercises the pipeline, and pin the acceptance criteria: the trace is
Chrome/Perfetto-shaped with every documented span name present, and
every report record carries provenance consistent with a scalar-engine
run.
"""

import json

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.observability.histogram import percentiles_from_snapshot
from repro.observability.tracing import PIPELINE_SPANS
from repro.parallel.pipeline import ParallelPipeline

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)


def make_stream(n=6_000, universe=100, seed=7):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, universe, size=n).astype(np.int64)
    values = np.where(rng.random(n) < 0.2, 500.0, rng.uniform(0, 100.0, n))
    return keys, values


@pytest.fixture(scope="module")
def traced_result():
    keys, values = make_stream()
    pipeline = ParallelPipeline(
        CRIT, 2, engine="scalar", memory_bytes=16_384, chunk_items=1_000,
        collect_trace=True, collect_provenance=True, collect_stats=True,
        trace_sample_every=1, seed=3,
    )
    result = pipeline.run(keys, values)
    return pipeline, result


class TestTraceCollection:
    def test_all_documented_spans_present(self, traced_result):
        _, result = traced_result
        names = {e["name"] for e in result.trace_events}
        assert set(PIPELINE_SPANS) <= names

    def test_events_are_chrome_shaped_and_serialisable(self, traced_result):
        _, result = traced_result
        text = json.dumps({"traceEvents": result.trace_events})
        for event in json.loads(text)["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert event["ts"] >= 0.0
            assert "pid" in event and "tid" in event

    def test_worker_spans_carry_worker_pids(self, traced_result):
        _, result = traced_result
        pids = {
            e["pid"] for e in result.trace_events
            if e["name"] == "shard_insert"
        }
        master_pids = {
            e["pid"] for e in result.trace_events
            if e["name"] == "pipeline_feed"
        }
        # fork start method: workers are distinct processes.
        assert pids and master_pids and not (pids & master_pids)

    def test_tracing_off_collects_nothing(self):
        keys, values = make_stream(n=2_000)
        pipeline = ParallelPipeline(
            CRIT, 2, engine="scalar", memory_bytes=16_384,
            chunk_items=1_000, seed=3,
        )
        result = pipeline.run(keys, values)
        assert pipeline.tracer is None
        assert result.trace_events is None


class TestProvenanceCollection:
    def test_every_report_record_has_provenance(self, traced_result):
        _, result = traced_result
        records = result.report_records
        assert records
        for record in records:
            prov = record["provenance"]
            assert prov is not None
            assert prov["part"] == record["source"]
            assert prov["qweight"] == record["qweight"]
            assert prov["threshold"] == CRIT.report_threshold
            assert prov["items_since_reset"] >= 1
        json.dumps(records)

    def test_records_match_released_reports(self, traced_result):
        _, result = traced_result
        assert len(result.report_records) == sum(result.per_shard_reports)
        record_keys = {r["key"] for r in result.report_records}
        released = {
            int(key) for batch in result.batches for key in batch.keys
        }
        assert record_keys == released

    def test_provenance_requires_scalar_engine(self):
        with pytest.raises(ParameterError):
            ParallelPipeline(
                CRIT, 2, engine="batch", memory_bytes=16_384,
                collect_provenance=True,
            )

    def test_provenance_off_means_no_records(self):
        keys, values = make_stream(n=2_000)
        pipeline = ParallelPipeline(
            CRIT, 2, engine="scalar", memory_bytes=16_384,
            chunk_items=1_000, seed=3,
        )
        result = pipeline.run(keys, values)
        assert result.report_records is None


class TestLatencyHistograms:
    def test_insert_and_queue_delay_histograms_in_stats(self, traced_result):
        _, result = traced_result
        stats = result.stats
        assert stats["worker_insert_seconds_count"] > 0
        assert stats["pipeline_report_queue_delay_seconds_count"] > 0
        assert stats["worker_insert_seconds_sum"] > 0.0

    def test_percentiles_recoverable_from_aggregate(self, traced_result):
        _, result = traced_result
        summary = percentiles_from_snapshot(
            result.stats, "worker_insert_seconds"
        )
        assert 0.0 < summary["p50"] <= summary["p99"] <= summary["p999"]

    def test_shard_histograms_sum_to_aggregate(self, traced_result):
        _, result = traced_result
        per_shard = [
            s.get("worker_insert_seconds_count", 0.0)
            for s in result.per_shard_stats
        ]
        assert sum(per_shard) == result.stats["worker_insert_seconds_count"]


class TestDetectionUnchanged:
    def test_traced_run_reports_same_keys_as_plain_run(self):
        keys, values = make_stream(n=4_000)
        kwargs = dict(
            engine="scalar", memory_bytes=16_384, chunk_items=1_000, seed=3
        )
        plain = ParallelPipeline(CRIT, 2, **kwargs).run(keys, values)
        traced = ParallelPipeline(
            CRIT, 2, collect_trace=True, collect_provenance=True,
            trace_sample_every=1, **kwargs,
        ).run(keys, values)
        assert traced.reported_keys == plain.reported_keys
        assert traced.per_shard_reports == plain.per_shard_reports
