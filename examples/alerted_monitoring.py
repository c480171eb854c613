#!/usr/bin/env python
"""Alerting end to end: drift trips a rule, the rule dumps a bundle.

This is :mod:`examples.recorded_monitoring` with a custom rule added
to the pack.  Once per synthetic tick the
:class:`~repro.observability.FilterServeSource` collects the filter's
registry snapshot plus the health signal gauges into its
:class:`~repro.observability.MetricStore`, and its
:class:`~repro.observability.AlertEngine` runs the shipped rule pack
(:func:`~repro.observability.default_rules`) plus one strict critical
drift rule with a ``for:`` hold against the retained history.

Phase 1 feeds a benign :mod:`repro.streams.drift` trace — every rule
stays ``inactive``.  Phase 2 injects a large anomalous key set; the
exceedance drift z-score climbs, the strict rule's condition holds
through its ``for:`` window (the example advances a synthetic clock,
so no wall-clock waiting), and the rule walks
``inactive -> pending -> firing``.  Because a
:class:`~repro.observability.FlightRecorder` is attached, every rule
entering firing **auto-dumps an incident bundle** tagged
``alert:<rule>``.

Run:  python examples/alerted_monitoring.py [incident-dir]
"""

import sys
import tempfile

from repro import Criteria, QuantileFilter
from repro.observability import (
    AlertRule,
    FilterServeSource,
    FlightRecorder,
    HealthMonitor,
    MetricStore,
    default_rules,
    list_incidents,
)
from repro.observability.instrument import observe_filter
from repro.streams.drift import DriftConfig, generate_drift_trace

CRITERIA = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=1_024, seed=7)

STRIDE = 2_048

#: Synthetic seconds per feed stride: `for:` durations elapse over the
#: run without the example sleeping.
TICK_SECONDS = 10.0

BENIGN = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=0, seed=3,
)
INJECTED = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=120, anomaly_boost=25.0, seed=3,
)

#: A stricter twin of the shipped exceedance-drift rule: critical, and
#: with a `for:` hold short enough that the injected phase keeps it
#: firing within this example's run.
STRICT_DRIFT = AlertRule(
    name="drift-critical",
    expr="max(qf_drift_z[60s]) >= 4",
    for_seconds=20.0,
    resolve=2.0,
    severity="critical",
    description="Strict drift rule for the example: fires (and dumps "
    "an incident bundle) once the z-score holds above 4 for 20s.",
)


def main(out_dir=None):
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="qf-alerts-")
    benign = generate_drift_trace(BENIGN)
    injected = generate_drift_trace(INJECTED)

    filt = QuantileFilter(CRITERIA, **GEOMETRY)
    registry = observe_filter(filt)
    recorder = FlightRecorder(
        filt, max_chunks=16, incident_dir=out_dir,
        config={"example": "alerted_monitoring", "stride": STRIDE},
        registry=registry,
    )
    monitor = HealthMonitor.for_filter(filt, drift_window_items=1_024)
    clock = [0.0]
    store = MetricStore(clock=lambda: clock[0])
    # Rules entering `firing` dump forensic bundles through the recorder.
    source = FilterServeSource(
        filt, monitor=monitor, registry=registry, recorder=recorder,
        rules=default_rules() + [STRICT_DRIFT], store=store,
    )
    engine = source.alerts

    def tick():
        """One collect + evaluate step on the synthetic clock."""
        transitions = source.tick(now=clock[0])
        for transition in transitions:
            print(f"  t={clock[0]:>5g}s  {transition}")
        clock[0] += TICK_SECONDS
        return transitions

    def feed_phase(trace):
        for begin in range(0, len(trace), STRIDE):
            keys = [int(k) for k in trace.keys[begin:begin + STRIDE]]
            values = [float(v) for v in trace.values[begin:begin + STRIDE]]
            recorder.feed(keys, values)
            monitor.observe_batch(keys, values)
            tick()

    print(f"phase 1: benign ({len(benign)} items)")
    feed_phase(benign)
    firing = [name for name, state in engine.states().items()
              if state == "firing"]
    print(f"  firing after benign phase: {firing or 'none'}")

    print(f"\nphase 2: injected anomalies ({len(injected)} items)")
    feed_phase(injected)
    firing = engine.firing()
    print(f"  firing after injected phase: "
          f"{[rule.name for rule in firing] or 'none'}")
    assert any(rule.name == "drift-critical" for rule in firing), (
        "the strict drift rule should be firing after the injected phase"
    )

    report = source.report()
    print(f"\nalert-layer verdict: {report.verdict}")
    for reason in report.reasons:
        print(f"  reason: {reason}")

    bundles = [m for m in list_incidents(out_dir)
               if str(m.get("reason", "")).startswith("alert:")]
    assert any(m["reason"] == "alert:drift-critical" for m in bundles), (
        "the firing strict rule should have dumped a bundle"
    )
    newest = bundles[0]
    print(f"\nincident bundle: {newest['bundle']}")
    print(f"  trigger: {newest['reason']}")
    print(f"  window: {newest['window_chunks']} chunks / "
          f"{newest['window_items']} items")
    print(f"\nstore accounting: {store.retained_points} points retained "
          f"across {len(store)} series "
          f"({store.points_ingested} ingested, "
          f"{store.points_evicted} evicted, ~{store.nbytes / 1024:.0f} KiB)")
    return engine


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
