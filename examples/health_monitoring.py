#!/usr/bin/env python
"""Health monitoring: a drift-injected stream flips ``/healthz``.

The observability layer can *measure* a filter; this example shows it
*judging* one.  A :class:`~repro.observability.HealthMonitor` watches a
standalone filter from the side — a drift detector on the raw values
(the fraction exceeding the criteria threshold ``T``) plus a shadow
accuracy estimator tracking a hash-sampled key slice exactly — and
turns what it sees into one gauge per health signal.  The serve
source's ``tick()`` after every stride hands those gauges to the
default alert rule pack, whose verdict a
:class:`~repro.observability.HealthServer` serves over HTTP.

Phase 1 feeds a benign :mod:`repro.streams.drift` trace (no anomalous
keys): the drift detector locks its reference exceedance fraction and
``/healthz`` reports ``ok``.  Phase 2 feeds the same workload with a
large anomalous key set injected, shifting the exceedance fraction far
from the reference; the ``exceedance-drift`` rule fires, the
``exceedance_drift`` signal turns ``degraded`` and the report's
reasons name it — the page an operator would receive.

Run:  python examples/health_monitoring.py
"""

import json
import urllib.request

from repro import Criteria, QuantileFilter
from repro.observability import FilterServeSource, HealthMonitor, HealthServer
from repro.streams.drift import DriftConfig, generate_drift_trace

CRITERIA = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=1_024, seed=7)

#: Items fed between ticks.
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


def main():
    benign = generate_drift_trace(BENIGN)
    injected = generate_drift_trace(INJECTED)

    filt = QuantileFilter(CRITERIA, **GEOMETRY)
    monitor = HealthMonitor.for_filter(filt, drift_window_items=1_024)
    source = FilterServeSource(filt, monitor=monitor)

    def feed(trace):
        for start in range(0, len(trace), STRIDE):
            keys = trace.keys[start:start + STRIDE]
            values = trace.values[start:start + STRIDE]
            filt.insert_many(keys, values)
            monitor.observe_batch(keys, values)
            source.tick()

    with HealthServer(source) as server:
        def healthz():
            with urllib.request.urlopen(server.url + "/healthz") as resp:
                return json.load(resp)

        # Phase 1: stationary traffic establishes the drift reference.
        feed(benign)
        baseline = healthz()
        drift_ok = next(
            s for s in baseline["signals"] if s["name"] == "exceedance_drift"
        )
        print(f"baseline verdict: {baseline['verdict']}")
        print(f"baseline exceedance {monitor.drift.last_fraction:.1%} "
              f"(reference {monitor.drift.reference:.1%})")
        print(f"baseline drift signal ok: {drift_ok['verdict'] == 'ok'}")

        # Phase 2: anomalies injected — concept drift across T.
        feed(injected)
        drifted = healthz()
        drift_signal = next(
            s for s in drifted["signals"] if s["name"] == "exceedance_drift"
        )
        print(f"\ndrifted verdict: {drifted['verdict']}")
        print(f"drifted exceedance {monitor.drift.last_fraction:.1%} "
              f"(z = {monitor.drift.last_z:.1f})")
        print(f"drift signal degraded after injection: "
              f"{drift_signal['verdict'] == 'degraded'}")
        print(f"triggering signal named in reasons: "
              f"{any(r.startswith('exceedance_drift:') for r in drifted['reasons'])}")
        for reason in drifted["reasons"]:
            print(f"  reason: {reason}")

        # The shadow sampler scores live accuracy on its exact slice.
        score = monitor.shadow.score(filt.reported_keys)
        print(f"\nshadow slice: {score.sampled_keys} keys tracked exactly, "
              f"precision {score.precision:.2f} "
              f"[{score.precision_low:.2f}, {score.precision_high:.2f}], "
              f"recall {score.recall:.2f} "
              f"[{score.recall_low:.2f}, {score.recall_high:.2f}]")

        # And /metrics carries the verdict for any Prometheus scraper.
        with urllib.request.urlopen(server.url + "/metrics") as resp:
            metrics = resp.read().decode()
        status_line = next(
            line for line in metrics.splitlines()
            if line.startswith("qf_health_status")
        )
        print(f"scraped: {status_line} (0 ok / 1 degraded / 2 critical)")


if __name__ == "__main__":
    main()
