#!/usr/bin/env python
"""Traced monitoring: spans, report provenance and latency histograms.

``observed_monitoring.py`` shows the always-on metrics tier; this
example turns on the debugging/audit tier.  A
:class:`~repro.parallel.pipeline.ParallelPipeline` built with
``collect_trace=True`` records every pipeline stage (feed, per-shard
batch insert, queue wait, collect) as spans on one monotonic
timeline — master and worker processes included — and writes them as
Chrome trace-event JSON that https://ui.perfetto.dev renders as a
per-process flame chart.  ``collect_provenance=True`` (scalar engine)
attaches a :class:`~repro.observability.ReportProvenance` to every
report: where the key lived, how contended its bucket was, how fresh
the structure was.  Latency histograms (batch-insert time, report
queue delay) ride the ordinary stats snapshot and merge exactly across
shards.

The ``repro trace`` CLI subcommand packages this whole flow; the code
below is what it does, spelled out.

Run:  python examples/traced_monitoring.py
"""

import json

from repro import Criteria, ParallelPipeline
from repro.observability import (
    configure_json_logging,
    render_histogram_summaries,
)
from repro.streams.caida_like import CaidaLikeConfig, generate_caida_like_trace

CRITERIA = Criteria(delta=0.9, threshold=150.0, epsilon=10.0)
NUM_SHARDS = 2
TRACE_PATH = "traced_monitoring.trace.json"


def main():
    # Pipeline lifecycle logs as JSON lines on stderr (same shape as
    # the stats emitter, so one `jq` pipeline reads both).
    configure_json_logging()

    trace = generate_caida_like_trace(
        CaidaLikeConfig(num_items=40_000, num_keys=1_000, seed=21)
    )
    pipeline = ParallelPipeline(
        CRITERIA, NUM_SHARDS,
        engine="scalar",          # provenance needs Report objects
        memory_bytes=32 * 1024, chunk_items=4_096, seed=17,
        collect_trace=True, trace_sample_every=16,
        collect_provenance=True,
        collect_stats=True,
    )
    result = pipeline.run(trace.keys, trace.values)

    # --- spans ---------------------------------------------------------
    pipeline.tracer.write(TRACE_PATH, example="traced_monitoring")
    by_name = {}
    for event in result.trace_events:
        by_name.setdefault(event["name"], []).append(event)
    print(f"wrote {TRACE_PATH} ({len(result.trace_events)} events; "
          f"load it at https://ui.perfetto.dev):")
    for name in sorted(by_name):
        spans = [e for e in by_name[name] if e["ph"] == "X"]
        if spans:
            total_ms = sum(e["dur"] for e in spans) / 1e3
            print(f"  {name:<18} {len(spans):>3} spans, "
                  f"{total_ms:8.2f} ms total")
        else:
            print(f"  {name:<18} {len(by_name[name]):>3} instant events")

    # --- provenance ----------------------------------------------------
    records = result.report_records
    print(f"\n{len(records)} reports, every one with provenance:")
    for record in records[:3]:
        print(f"  {json.dumps(record)}")
    candidate = sum(
        1 for r in records if r["provenance"]["part"] == "candidate"
    )
    print(f"  ... {candidate} from the candidate part, "
          f"{len(records) - candidate} from the vague part")

    # --- latency histograms --------------------------------------------
    print("\nlatency histograms (merged across shards):")
    print(render_histogram_summaries(result.stats))


if __name__ == "__main__":
    main()
