"""Verdict parity: the rule pack reaches the verdicts the old model did.

``data/verdict_parity.json`` was recorded at the commit named in its
header (the snippet that produced it is stored there too), before the
health thresholds moved into the default alert rule pack.  It holds,
per 2 048-item stride, the verdict and the set of non-ok signals for
the benign, drift and saturation streams of ``test_server.py`` through
a :class:`FilterServeSource`, and for the drift stream through a
2-shard :class:`PipelineServeSource`, all with the monitor's default
settings.  Replaying the same streams through ``tick()`` must reach the
same verdict at every tick, with the firing rules' ``signal`` labels
naming exactly the recorded non-ok signals.
"""

import json
from pathlib import Path

import pytest

from repro.core.quantile_filter import QuantileFilter
from repro.observability.server import FilterServeSource, PipelineServeSource
from tests.observability.test_server import (
    BENIGN_GEOMETRY,
    CRIT,
    DRIFT_CRIT,
    DRIFT_GEOMETRY,
    SATURATION_GEOMETRY,
    benign_stream,
    drift_stream,
    saturation_stream,
)

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "verdict_parity.json").read_text()
)
STRIDE = FIXTURE["header"]["stride_items"]

#: name -> (criteria, filter geometry, stream builder)
STREAMS = {
    "benign": (CRIT, dict(BENIGN_GEOMETRY, seed=0), benign_stream),
    "drift": (DRIFT_CRIT, DRIFT_GEOMETRY, drift_stream),
    "saturation": (CRIT, SATURATION_GEOMETRY, saturation_stream),
}


def record(source, items):
    """Tick, then the verdict and the firing rules' signals."""
    source.tick()
    firing = {rule.labels.get("signal") for rule in source.alerts.firing()}
    return {
        "items": int(items),
        "verdict": source.alerts.verdict(),
        "non_ok": sorted(firing),
    }


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_filter_source_matches_recorded_verdicts(name):
    criteria, geometry, stream = STREAMS[name]
    keys, values = stream()
    filt = QuantileFilter(criteria, **geometry)
    source = FilterServeSource(filt)
    ticks = []
    for start in range(0, keys.shape[0], STRIDE):
        k, v = keys[start:start + STRIDE], values[start:start + STRIDE]
        filt.insert_many(k, v)
        source.monitor.observe_batch(k, v)
        ticks.append(record(source, filt.items_processed))
    assert ticks == FIXTURE["streams"][name]


def test_pipeline_source_matches_recorded_verdicts():
    from repro.parallel.pipeline import ParallelPipeline

    keys, values = drift_stream()
    pipeline = ParallelPipeline(
        DRIFT_CRIT, 2, memory_bytes=32 * 1024, chunk_items=STRIDE,
        collect_stats=True,
    )
    source = PipelineServeSource(pipeline)
    ticks = []
    with pipeline:
        for start in range(0, keys.shape[0], STRIDE):
            k, v = keys[start:start + STRIDE], values[start:start + STRIDE]
            source.monitor.observe_batch(k, v)
            pipeline.feed(k, v)
            pipeline.collect_stats_view()
            ticks.append(record(source, pipeline.items_fed))
        pipeline.finish()
    assert ticks == FIXTURE["streams"]["drift-pipeline-2"]


def test_fixture_covers_verdict_changes():
    """The streams flip the verdict, name five signals, and stop and
    restart one of them (report_rate at the drift stream's 7th tick)."""
    drift = [tick["non_ok"] for tick in FIXTURE["streams"]["drift"]]
    named = {s for stream in FIXTURE["streams"].values()
             for tick in stream for s in tick["non_ok"]}
    assert len(named) == 5 and drift[0] == []
    assert "report_rate" in drift[5] and "report_rate" not in drift[6]
