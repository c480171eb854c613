"""Alerting end to end, plus scrape concurrency against a live pipeline.

Two scenarios close the loop on the time-series/alerting layer:

* **Drift-to-bundle acceptance**: injected exceedance drift must walk a
  critical rule ``inactive -> pending -> firing`` within its ``for:``
  window, after which ``/alerts`` reports it firing, ``/healthz`` turns
  critical *naming the rule*, the flight recorder has written an
  ``alert:<rule>`` incident bundle, and ``repro alerts check`` exits 2.
* **Scrape concurrency**: HTTP threads hammering ``/metrics`` and
  ``/alerts`` while the feeding thread retargets the pipeline and a
  critical rule fires — every response must parse (no torn reads) and
  everything must join (no deadlock).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.observability.alerts import AlertRule
from repro.observability.health import HealthMonitor
from repro.observability.instrument import observe_filter
from repro.observability.recorder import FlightRecorder, list_incidents
from repro.observability.server import (
    FilterServeSource,
    HealthServer,
    PipelineServeSource,
)
from repro.observability.timeseries import MetricStore
from repro.streams.drift import DriftConfig, generate_drift_trace

CRITERIA = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=1_024, seed=7)
STRIDE = 2_048
TICK_SECONDS = 10.0

BENIGN = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=0, seed=3,
)
INJECTED = DriftConfig(
    num_items=12_000, num_keys=400, num_phases=1,
    anomalous_per_phase=120, anomaly_boost=25.0, seed=3,
)

DRIFT_RULE = dict(
    name="drift-critical",
    expr="max(qf_drift_z[60s]) >= 4",
    for_seconds=20.0,
    resolve=2.0,
    severity="critical",
)


def get_json(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


class TestDriftFiresRuleEndToEnd:
    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        """Benign phase, then injected drift, on a synthetic clock."""
        incident_dir = tmp_path_factory.mktemp("incidents")
        filt = QuantileFilter(CRITERIA, **GEOMETRY)
        registry = observe_filter(filt)
        recorder = FlightRecorder(
            filt, max_chunks=16, incident_dir=incident_dir,
            registry=registry,
        )
        monitor = HealthMonitor.for_filter(filt, drift_window_items=1_024)
        clock = {"t": 0.0}
        store = MetricStore(clock=lambda: clock["t"])
        source = FilterServeSource(
            filt, monitor=monitor, registry=registry, recorder=recorder,
            rules=[AlertRule(**DRIFT_RULE)], store=store,
        )
        transitions = []
        breach_times = {}  # state -> synthetic time it was entered

        def feed(trace):
            for begin in range(0, len(trace), STRIDE):
                keys = [int(k) for k in trace.keys[begin:begin + STRIDE]]
                values = [
                    float(v) for v in trace.values[begin:begin + STRIDE]
                ]
                for key, value in zip(keys, values):
                    filt.insert(key, value)
                recorder.feed(keys, values)
                monitor.observe_batch(keys, values)
                for transition in source.tick(now=clock["t"]):
                    transitions.append(transition)
                    breach_times[transition.new_state] = clock["t"]
                clock["t"] += TICK_SECONDS

        feed(generate_drift_trace(BENIGN))
        benign_states = dict(source.alerts.states())
        feed(generate_drift_trace(INJECTED))
        return dict(
            source=source, transitions=transitions,
            breach_times=breach_times, benign_states=benign_states,
            incident_dir=incident_dir, clock=clock,
        )

    def test_benign_phase_stays_inactive(self, scenario):
        assert scenario["benign_states"] == {"drift-critical": "inactive"}

    def test_rule_fires_through_pending_within_for_window(self, scenario):
        edges = [
            (t.old_state, t.new_state) for t in scenario["transitions"]
        ]
        assert ("inactive", "pending") in edges
        assert ("pending", "firing") in edges
        held = (
            scenario["breach_times"]["firing"]
            - scenario["breach_times"]["pending"]
        )
        # Fired as soon as for: elapsed — within one tick of the window.
        assert DRIFT_RULE["for_seconds"] <= held \
            <= DRIFT_RULE["for_seconds"] + TICK_SECONDS

    def test_alerts_route_reports_firing(self, scenario):
        with HealthServer(scenario["source"]) as server:
            status, payload = get_json(server.url + "/alerts")
        assert status == 200
        assert payload["firing"] == ["drift-critical"]
        (alert,) = payload["alerts"]
        assert alert["state"] == "firing"
        assert alert["fired_count"] >= 1

    def test_healthz_goes_critical_naming_the_rule(self, scenario):
        with HealthServer(scenario["source"]) as server:
            status, payload = get_json(server.url + "/healthz")
        assert status == 503
        assert payload["verdict"] == "critical"
        assert any(
            "rule drift-critical firing" in reason
            for reason in payload["reasons"]
        )

    def test_flight_recorder_wrote_alert_bundle(self, scenario):
        manifests = list_incidents(scenario["incident_dir"])
        reasons = [m["reason"] for m in manifests]
        assert "alert:drift-critical" in reasons

    def test_repro_alerts_check_exits_two(self, tmp_path, capsys):
        from repro.observability.cli import main

        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rule": [{
            "name": "drift-critical",
            "expr": "value(qf_items_total) > 100",
            "severity": "critical",
            "resolve": 50.0,
        }]}))
        rc = main([
            "alerts", "check", "--dataset", "internet",
            "--scale", "12000", "--chunk-items", "4096",
            "--rules", str(rules),
        ])
        assert rc == 2
        assert "FIRING [critical] drift-critical" \
            in capsys.readouterr().out


class TestScrapeConcurrency:
    def test_scrapes_race_retarget(self):
        """/metrics + /alerts scrapes keep parsing while the feeder
        retargets every shard and a critical rule fires."""
        from repro.parallel.pipeline import ParallelPipeline
        from repro.streams.caida_like import (
            CaidaLikeConfig,
            generate_caida_like_trace,
        )

        trace = generate_caida_like_trace(
            CaidaLikeConfig(num_items=60_000, num_keys=2_000, seed=5)
        )
        pipeline = ParallelPipeline(
            Criteria(delta=0.95, threshold=200.0, epsilon=30.0),
            2, engine="batch", chunk_items=2_048, collect_stats=True,
            num_buckets=256, vague_width=256, seed=0,
        )
        clock = {"t": 0.0}
        store = MetricStore(clock=lambda: clock["t"])
        source = PipelineServeSource(
            pipeline,
            rules=[AlertRule(
                name="items-flowing",
                expr="value(qf_items_total) > 1000",
                severity="critical", resolve=500.0,
            )],
            store=store,
        )
        errors = []
        stop = threading.Event()

        def scraper(route):
            while not stop.is_set():
                try:
                    status, payload = get_json(url + route)
                    if route == "/alerts":
                        assert status == 200
                        assert payload["rules"] == 1
                    else:
                        assert status in (200, 503)
                except Exception as exc:  # pragma: no cover
                    errors.append((route, exc))
                    return

        def scrape_metrics():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                        url + "/metrics", timeout=10
                    ) as resp:
                        body = resp.read().decode()
                    for line in body.strip().splitlines():
                        if not line.startswith("#"):
                            float(line.rsplit(" ", 1)[1])
                except Exception as exc:  # pragma: no cover
                    errors.append(("/metrics", exc))
                    return

        with pipeline:
            pipeline.start()
            with HealthServer(source) as server:
                url = server.url
                threads = [
                    threading.Thread(target=scraper, args=("/alerts",)),
                    threading.Thread(target=scraper, args=("/healthz",)),
                    threading.Thread(target=scrape_metrics),
                ]
                for t in threads:
                    t.start()
                stride = 4 * 2_048
                half = trace.keys.shape[0] // 2
                try:
                    for begin in range(0, trace.keys.shape[0], stride):
                        pipeline.feed(
                            trace.keys[begin:begin + stride],
                            trace.values[begin:begin + stride],
                        )
                        pipeline.collect_stats_view()
                        source.tick(now=clock["t"])
                        clock["t"] += 5.0
                        if begin <= half < begin + stride:
                            pipeline.retarget(340.0)
                    result = pipeline.finish()
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=30)
        assert not errors, errors
        assert all(not t.is_alive() for t in threads)
        assert result.items == trace.keys.shape[0]
        assert pipeline.criteria.threshold == 340.0
        assert source.alerts.states() == {"items-flowing": "firing"}
