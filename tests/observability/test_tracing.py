"""Tests for repro.observability.tracing."""

import json

import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.tracing import (
    FILTER_EVENTS,
    PIPELINE_SPANS,
    FilterTraceHook,
    Tracer,
    attach_filter_tracing,
)

CRIT = Criteria(delta=0.5, threshold=10.0, epsilon=2.0)


class TestTracer:
    def test_span_context_manager_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("stage_a", items=7):
            pass
        (event,) = tracer.chrome_events()
        assert event["name"] == "stage_a"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["args"] == {"items": 7}
        assert event["pid"] > 0 and event["tid"] > 0

    def test_add_span_microsecond_conversion(self):
        tracer = Tracer()
        tracer.add_span("s", 1.0, 1.5)
        (event,) = tracer.chrome_events()
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.5e6)

    def test_add_span_clamps_negative_duration(self):
        tracer = Tracer()
        tracer.add_span("s", 2.0, 1.0)
        assert tracer.chrome_events()[0]["dur"] == 0.0

    def test_instant_event_shape(self):
        tracer = Tracer()
        tracer.instant("report", key="'k'")
        (event,) = tracer.chrome_events()
        assert event["ph"] == "i"
        assert event["s"] == "p"
        assert event["args"]["key"] == "'k'"

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e["name"] for e in tracer.chrome_events()] == [
            "e2", "e3", "e4"
        ]

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            Tracer(capacity=0)

    def test_extend_folds_foreign_events(self):
        worker, master = Tracer(), Tracer()
        worker.add_span("shard_insert", 0.0, 0.1)
        master.extend(worker.chrome_events())
        assert master.chrome_events()[0]["name"] == "shard_insert"

    def test_chrome_trace_is_json_serialisable_and_perfetto_shaped(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        trace = json.loads(json.dumps(tracer.chrome_trace(run="t")))
        assert trace["displayTimeUnit"] == "ms"
        assert isinstance(trace["traceEvents"], list)
        assert trace["metadata"]["run"] == "t"

    def test_chrome_trace_reports_drops_in_metadata(self):
        tracer = Tracer(capacity=1)
        tracer.instant("a")
        tracer.instant("b")
        assert tracer.chrome_trace()["metadata"]["droppedEvents"] == 1

    def test_write_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("pipeline_feed"):
            pass
        path = tmp_path / "out.trace.json"
        tracer.write(path, dataset="demo")
        trace = json.loads(path.read_text())
        assert trace["traceEvents"][0]["name"] == "pipeline_feed"
        assert trace["metadata"]["dataset"] == "demo"

    def test_clear_resets_drop_counter(self):
        tracer = Tracer(capacity=1)
        tracer.instant("a")
        tracer.instant("b")
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0


class TestFilterTraceHook:
    def test_sample_every_one_records_everything(self):
        tracer = Tracer()
        hook = FilterTraceHook(tracer, sample_every=1)
        for i in range(5):
            hook("report", "k", 3, 50.0, i)
        assert len(tracer) == 5

    def test_sampling_keeps_first_of_each_stride(self):
        tracer = Tracer()
        hook = FilterTraceHook(tracer, sample_every=10)
        for i in range(25):
            hook("report", "k", 3, 50.0, i)
        recorded = [e["args"]["item_index"] for e in tracer.chrome_events()]
        assert recorded == [0, 10, 20]

    def test_sampling_counters_independent_per_kind(self):
        tracer = Tracer()
        hook = FilterTraceHook(tracer, sample_every=10)
        for kind in FILTER_EVENTS:
            hook(kind, "k", 0, 1.0, 0)
        # First occurrence of each kind always records.
        assert sorted(e["name"] for e in tracer.chrome_events()) == sorted(
            FILTER_EVENTS
        )

    def test_invalid_sample_every(self):
        with pytest.raises(ParameterError):
            FilterTraceHook(Tracer(), sample_every=0)


class TestAttachFilterTracing:
    def test_traced_filter_emits_all_event_kinds(self):
        tracer = Tracer()
        # Tiny geometry forces elections, swaps and reports.
        qf = QuantileFilter(
            CRIT, num_buckets=2, bucket_size=1, vague_width=16,
            counter_kind="float", seed=3,
        )
        attach_filter_tracing(qf, tracer, sample_every=1)
        for i in range(400):
            qf.insert(i % 37, 60.0)
        names = {e["name"] for e in tracer.chrome_events()}
        assert set(FILTER_EVENTS) <= names

    def test_untraced_filter_has_no_hook(self):
        qf = QuantileFilter(CRIT, num_buckets=8, vague_width=16)
        assert qf.trace_hook is None

    def test_batch_engine_rejected(self):
        bf = BatchQuantileFilter(CRIT, num_buckets=8, vague_width=16)
        with pytest.raises(ParameterError):
            attach_filter_tracing(bf, Tracer())

    def test_tracing_does_not_change_reports(self):
        kwargs = dict(
            num_buckets=4, bucket_size=2, vague_width=32,
            counter_kind="float", seed=7,
        )
        plain = QuantileFilter(CRIT, **kwargs)
        traced = QuantileFilter(CRIT, **kwargs)
        attach_filter_tracing(traced, Tracer(), sample_every=1)
        for i in range(500):
            key, value = i % 23, 40.0 + (i % 5) * 10.0
            plain.insert(key, value)
            traced.insert(key, value)
        assert traced.reported_keys == plain.reported_keys
        assert traced.report_count == plain.report_count


def test_span_name_constants_documented():
    """The constants CI asserts against stay stable."""
    assert PIPELINE_SPANS == (
        "pipeline_feed", "pipeline_collect",
        "shard_insert", "shard_queue_wait",
    )
    assert FILTER_EVENTS == ("candidate_elect", "candidate_swap", "report")
