#!/usr/bin/env python
"""Flight recording: a rule firing dumps a bundle, replay proves it.

This is :mod:`examples.health_monitoring` with the black box attached.
A :class:`~repro.observability.FlightRecorder` rides the filter's
insert path at chunk granularity, retaining the last few raw chunks
plus a base snapshot so ``base + chunks == live filter`` at every
boundary.  A :class:`~repro.observability.FilterServeSource` ticks
after every stride — health signal gauges in, alert rule verdict out —
and, because the recorder is attached to it, every rule entering the
firing state dumps a bundle.

Phase 1 feeds a benign :mod:`repro.streams.drift` trace — the drift
detector locks its reference and the verdict is ``ok``.  Phase 2 feeds
the same workload with a large anomalous key set injected; the
``exceedance-drift`` rule fires, the verdict turns ``degraded``, and
the firing rule **auto-dumps an incident bundle** — the captured
stream window, forensic probes and expected outcomes, gzipped with a
sidecar manifest.  The example then closes the loop the way an
engineer triaging the incident would: it loads the bundle back,
replays the window chunk-for-chunk through the same engine entry
points, and checks the reports, final state fingerprint and structural
signal values reproduce bit-identically.

Run:  python examples/recorded_monitoring.py [incident-dir]
"""

import sys
import tempfile

from repro import Criteria, QuantileFilter
from repro.observability import (
    FilterServeSource,
    FlightRecorder,
    HealthMonitor,
    list_incidents,
    replay_bundle,
)
from repro.observability.instrument import observe_filter
from repro.streams.drift import DriftConfig, generate_drift_trace

CRITERIA = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=1_024, seed=7)

#: Chunk stride for both the feed and the recorder ring — a realistic
#: pipeline chunk size, small enough that the ring rotates a few times.
STRIDE = 2_048

#: Phase 1 is stationary (no anomalous keys); phase 2 is the same
#: workload with a large anomalous set injected, so the value-vs-T
#: exceedance fraction visibly shifts.
BENIGN = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=0, seed=3,
)
INJECTED = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=120, anomaly_boost=25.0, seed=3,
)


def main(out_dir=None):
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="qf-incidents-")
    benign = generate_drift_trace(BENIGN)
    injected = generate_drift_trace(INJECTED)

    filt = QuantileFilter(CRITERIA, **GEOMETRY)
    registry = observe_filter(filt)
    recorder = FlightRecorder(
        filt, max_chunks=16, incident_dir=out_dir,
        config={"example": "recorded_monitoring", "stride": STRIDE},
        registry=registry,
    )
    monitor = HealthMonitor.for_filter(filt, drift_window_items=1_024)
    source = FilterServeSource(
        filt, monitor=monitor, registry=registry, recorder=recorder,
    )

    def feed_phase(trace):
        # The recorder IS the insert path while recording: each stride
        # is captured, then applied through the same insert_many an
        # unrecorded feeder would use.  Each tick hands the rules that
        # enter firing to the recorder, which dumps one bundle each.
        for begin in range(0, len(trace), STRIDE):
            keys = [int(k) for k in trace.keys[begin:begin + STRIDE]]
            values = [float(v) for v in trace.values[begin:begin + STRIDE]]
            recorder.feed(keys, values)
            monitor.observe_batch(keys, values)
            source.tick()
        return source.report()

    baseline = feed_phase(benign)
    print(f"baseline verdict: {baseline.verdict}")
    print(f"baseline exceedance {monitor.drift.last_fraction:.1%} "
          f"(reference {monitor.drift.reference:.1%})")
    print(f"recorder window: {recorder.retained_chunks} chunks / "
          f"{recorder.retained_items} items "
          f"(~{recorder.retained_bytes / 1024:.0f} KiB)")

    drifted = feed_phase(injected)
    print(f"\ndrifted verdict: {drifted.verdict}")
    for reason in drifted.reasons:
        print(f"  reason: {reason}")

    incidents = list_incidents(out_dir)
    assert incidents, "the firing rules should have dumped bundles"
    print(f"\nbundles dumped: "
          f"{sorted({m['reason'] for m in incidents})}")
    newest = incidents[0]
    print(f"incident bundle: {newest['bundle']}")
    print(f"  trigger: {newest['reason']}")
    print(f"  window: {newest['window_chunks']} chunks / "
          f"{newest['window_items']} items "
          f"(stream position {newest['items_processed']})")
    print(f"  engine: {newest['engine']}, "
          f"git revision: {newest['git_revision']}")

    # Close the loop: rebuild the filter from the bundle's base
    # snapshot, re-feed the captured chunks, and verify everything —
    # reports, counters, state fingerprint, signal values — matches.
    result = replay_bundle(newest["path"])
    print(f"\n{result.summary()}")
    print(f"replay matches capture bit-identically: {result.ok}")
    return result


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
