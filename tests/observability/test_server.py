"""HTTP health server: routes, verdict flips, pipeline serving, CLI."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.observability.alerts import default_rules
from repro.observability.health import HealthMonitor
from repro.observability.server import (
    FilterServeSource,
    HealthServer,
    PipelineServeSource,
    serve_filter,
)
from repro.streams.drift import DriftConfig, generate_drift_trace

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
DRIFT_CRIT = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
BENIGN_GEOMETRY = dict(num_buckets=64, bucket_size=4, vague_width=512)
DRIFT_GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=1024, seed=0)
#: A deliberately tiny candidate part for the saturation stream.
SATURATION_GEOMETRY = dict(num_buckets=2, bucket_size=2, vague_width=64,
                           seed=0)


def benign_stream(num_items=4_000, seed=0):
    """Lognormal values mostly below T over 80 keys."""
    rng = np.random.default_rng(seed)
    keys, values = [], []
    for _ in range(num_items):
        keys.append(int(rng.integers(0, 80)))
        values.append(float(rng.lognormal(4.0, 0.6)))
    return np.array(keys), np.array(values)


def drift_stream(num_items=24_000):
    """Two phases; the second injects a much larger anomalous key set,
    shifting the exceedance fraction across T (use with DRIFT_CRIT)."""
    trace = generate_drift_trace(DriftConfig(
        num_items=num_items, num_keys=400, num_phases=2,
        anomalous_per_phase=120, anomaly_boost=25.0, seed=1,
    ))
    return trace.keys, trace.values


def saturation_stream():
    """500 distinct hot keys: on SATURATION_GEOMETRY occupancy pins at
    100 % and churn explodes."""
    rng = np.random.default_rng(0)
    values = [float(rng.lognormal(5.2, 0.5)) for _ in range(6_000)]
    return np.arange(6_000) % 500, np.array(values)


def get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


def get_json(url):
    status, body, _ = get(url)
    return status, json.loads(body)


def fed_filter(num_items=4_000, seed=0):
    filt = QuantileFilter(CRIT, seed=seed, **BENIGN_GEOMETRY)
    filt.insert_many(*benign_stream(num_items, seed))
    return filt


class TestRoutes:
    @pytest.fixture()
    def server(self):
        server = serve_filter(fed_filter())
        yield server
        server.stop()

    def test_metrics_is_parseable_prometheus(self, server):
        status, body, headers = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = set()
        for line in body.strip().splitlines():
            if line.startswith("# HELP "):
                families.add(line.split()[2])
            elif line.startswith("# TYPE "):
                assert line.split()[3] in ("counter", "gauge", "histogram")
            else:
                name, value = line.rsplit(" ", 1)
                float(value)  # every sample value parses
                assert name.split("{")[0] in families
        assert "qf_items_total" in families
        assert "qf_health_status" in families

    def test_healthz_returns_verdict_json(self, server):
        status, payload = get_json(server.url + "/healthz")
        assert status == 200
        assert payload["verdict"] in ("ok", "degraded")
        assert isinstance(payload["reasons"], list)
        names = {s["name"] for s in payload["signals"]}
        assert "candidate_occupancy" in names

    def test_health_shards_single_entry_for_filter(self, server):
        status, payload = get_json(server.url + "/health/shards")
        assert status == 200
        assert len(payload["shards"]) == 1

    def test_unknown_route_404s_with_route_list(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404
        assert "/healthz" in json.load(err.value)["routes"]


class TestLifecycle:
    def test_ephemeral_port_bound_and_no_orphan_threads(self):
        baseline = threading.active_count()
        server = serve_filter(fed_filter(num_items=500))
        assert server.port != 0
        get(server.url + "/healthz")
        server.stop()
        assert not server.running
        assert threading.active_count() == baseline

    def test_context_manager_stops_on_exit(self):
        source = FilterServeSource(fed_filter(num_items=500))
        with HealthServer(source) as server:
            status, _ = get_json(server.url + "/healthz")
            assert status == 200
        assert not server.running

    def test_stop_is_idempotent(self):
        server = serve_filter(fed_filter(num_items=500))
        server.stop()
        server.stop()

    def test_concurrent_scrapes(self):
        server = serve_filter(fed_filter())
        errors = []

        def scrape():
            try:
                for _ in range(5):
                    get(server.url + "/metrics")
                    get_json(server.url + "/healthz")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.stop()
        assert errors == []

    def test_concurrent_scrapes_while_threaded_filter_mid_flush(self):
        """Scrapes against a live thread-parallel engine never error.

        /metrics and /healthz read the shared planes without locks
        while updater threads are committing flushes — every
        scrape must return parseable output and the thread-engine
        families must be present.
        """
        from repro.parallel.concurrent import ConcurrentQuantileFilter

        cqf = ConcurrentQuantileFilter(
            CRIT, num_buckets=64, vague_width=512, bucket_size=4,
            chunk_size=256, seed=0,
        )
        server = serve_filter(cqf)
        stop = threading.Event()
        errors = []

        def update(seed):
            rng = np.random.default_rng(seed)
            try:
                ingest = cqf.ingest()
                while not stop.is_set():
                    keys = rng.integers(0, 500, size=256)
                    values = rng.lognormal(4.0, 0.6, size=256)
                    ingest.insert_many(keys, values)
                ingest.flush()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def scrape():
            try:
                for _ in range(8):
                    status, body, _ = get(server.url + "/metrics")
                    assert status == 200
                    assert "qf_thread_flushes_total" in body
                    assert "qf_lock_wait_seconds_count" in body
                    get_json(server.url + "/healthz")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        updaters = [
            threading.Thread(target=update, args=(seed,)) for seed in (1, 2)
        ]
        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for t in updaters + scrapers:
            t.start()
        for t in scrapers:
            t.join()
        stop.set()
        for t in updaters:
            t.join()
        server.stop()
        assert errors == []
        assert cqf.thread_flushes > 0


class TestVerdictFlips:
    def test_drift_stream_flips_healthz_to_degraded(self):
        """Acceptance: a drift-injected stream names exceedance_drift."""
        filt = QuantileFilter(DRIFT_CRIT, **DRIFT_GEOMETRY)
        monitor = HealthMonitor.for_filter(
            filt, drift_window_items=1_024, shadow_sample_rate=None,
        )
        source = FilterServeSource(filt, monitor=monitor)
        keys, values = drift_stream()
        half = keys.shape[0] // 2
        with HealthServer(source) as server:
            # Phase 1: baseline traffic establishes the drift reference.
            filt.insert_many(keys[:half], values[:half])
            monitor.observe_batch(keys[:half], values[:half])
            source.tick()
            _, baseline = get_json(server.url + "/healthz")
            drift_before = next(
                s for s in baseline["signals"]
                if s["name"] == "exceedance_drift"
            )
            assert drift_before["verdict"] == "ok"

            # Phase 2: a much larger anomalous key set shifts the
            # exceedance fraction across T.
            filt.insert_many(keys[half:], values[half:])
            monitor.observe_batch(keys[half:], values[half:])
            source.tick()
            status, flipped = get_json(server.url + "/healthz")
        assert status == 200  # degraded still serves 200
        assert flipped["verdict"] == "degraded"
        assert any(r.startswith("exceedance_drift:") for r in
                   flipped["reasons"])

    def test_saturation_stress_flips_healthz_with_named_signal(self):
        """Acceptance: candidate-saturation stress names its signal."""
        filt = QuantileFilter(CRIT, **SATURATION_GEOMETRY)
        source = FilterServeSource(
            filt,
            monitor=HealthMonitor.for_filter(filt, shadow_sample_rate=None),
        )
        with HealthServer(source) as server:
            filt.insert_many(*saturation_stream())
            source.tick()
            _, payload = get_json(server.url + "/healthz")
        assert payload["verdict"] in ("degraded", "critical")
        flagged = {r.split(":")[0] for r in payload["reasons"]}
        assert flagged & {
            "candidate_occupancy", "candidate_churn", "vague_pressure",
            "vague_saturation",
        }

    def test_critical_verdict_returns_503(self):
        filt = fed_filter(num_items=2_000)
        monitor = HealthMonitor.for_filter(filt, shadow_sample_rate=None)
        source = FilterServeSource(filt, monitor=monitor)
        # Force a critical signal through the snapshot.
        registry = source.registry
        registry.gauge("qf_vague_saturation", agg="mean",
                       labels={"forced": "1"}).set(0.9)
        source.tick()
        with HealthServer(source) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url + "/healthz")
        assert err.value.code == 503
        assert json.load(err.value)["verdict"] == "critical"


class TestPipelineSource:
    def test_serves_cached_views_and_per_shard_breakdown(self):
        from repro.parallel.pipeline import ParallelPipeline

        rng = np.random.default_rng(5)
        keys = rng.integers(0, 1_000, size=24_000)
        values = rng.lognormal(4.0, 0.7, size=24_000)
        pipeline = ParallelPipeline(
            CRIT, 2, memory_bytes=32 * 1024, chunk_items=4_096,
            collect_stats=True,
        )
        monitor = HealthMonitor.for_criteria(CRIT, shadow_sample_rate=None)
        source = PipelineServeSource(pipeline, monitor=monitor)
        with pipeline:
            pipeline.start()
            with HealthServer(source) as server:
                half = keys.shape[0] // 2
                monitor.observe_batch(keys[:half], values[:half])
                pipeline.feed(keys[:half], values[:half])
                pipeline.collect_stats_view()
                source.tick()

                status, payload = get_json(server.url + "/healthz")
                assert status == 200
                workers = next(
                    s for s in payload["signals"]
                    if s["name"] == "workers_alive"
                )
                assert workers["verdict"] == "ok"

                _, shards = get_json(server.url + "/health/shards")
                assert len(shards["shards"]) == 2
                assert {s["source"] for s in shards["shards"]} == {
                    "shard-0", "shard-1",
                }

                _, metrics, _ = get(server.url + "/metrics")
                assert "qf_health_status" in metrics
                assert "pipeline_items_fed_total" in metrics

                monitor.observe_batch(keys[half:], values[half:])
                pipeline.feed(keys[half:], values[half:])
                pipeline.collect_stats_view()
                pipeline.finish()
                source.tick()

                # After finish the cached snapshot still serves.
                status, payload = get_json(server.url + "/healthz")
                assert status == 200
                assert all(
                    s["name"] != "workers_alive"
                    for s in payload["signals"]
                )

    def test_last_per_shard_stats_cached_by_view_and_finish(self):
        from repro.parallel.pipeline import ParallelPipeline

        rng = np.random.default_rng(6)
        keys = rng.integers(0, 200, size=8_000)
        values = rng.lognormal(4.0, 0.5, size=8_000)
        pipeline = ParallelPipeline(
            CRIT, 2, memory_bytes=32 * 1024, chunk_items=2_048,
            collect_stats=True,
        )
        assert pipeline.last_per_shard_stats is None
        with pipeline:
            pipeline.start()
            assert pipeline.running
            pipeline.feed(keys, values)
            pipeline.collect_stats_view()
            assert len(pipeline.last_per_shard_stats) == 2
            pipeline.finish()
        assert not pipeline.running
        assert len(pipeline.last_per_shard_stats) == 2
        assert pipeline.reported_keys == set(pipeline.reported_keys)


class TestIncidents:
    def test_route_empty_without_recorder(self):
        with serve_filter(fed_filter()) as server:
            status, payload = get_json(server.url + "/incidents")
        assert status == 200
        assert payload == {"count": 0, "incidents": []}

    def test_route_lists_dumped_bundles(self, tmp_path):
        from repro.observability.recorder import FlightRecorder

        filt = fed_filter()
        recorder = FlightRecorder(filt, incident_dir=tmp_path)
        recorder.feed([1, 2, 3], [5.0, 6.0, 7.0])
        recorder.dump("explicit")
        source = FilterServeSource(filt, recorder=recorder)
        source.tick()
        with HealthServer(source).start() as server:
            status, payload = get_json(server.url + "/incidents")
            _, metrics, _ = get(server.url + "/metrics")
        assert status == 200
        assert payload["count"] == 1
        manifest = payload["incidents"][0]
        assert manifest["reason"] == "explicit"
        assert manifest["engine"] == "scalar"
        # The recorder's gauges ride the same registry as the filter's.
        assert "qf_recorder_dumps_total 1" in metrics
        assert "qf_recorder_retained_items 3" in metrics

    def test_concurrent_scrapes_while_dump_in_flight(self, tmp_path):
        """Satellite: scrapes must never block on a recorder dump.

        Ticks send firing rules to the recorder OUTSIDE the source
        lock, and the recorder's feed/dump lock is never taken by the
        read-only routes — so /healthz, /metrics and /incidents stay
        responsive while bundles are being written.
        """
        from repro.observability.recorder import FlightRecorder

        filt = fed_filter()
        recorder = FlightRecorder(
            filt, max_chunks=4, incident_dir=tmp_path, max_incidents=64,
        )
        source = FilterServeSource(filt, recorder=recorder)
        rng = np.random.default_rng(1)
        errors = []
        scraped = []

        with HealthServer(source).start() as server:
            stop = threading.Event()

            def scrape():
                try:
                    while not stop.is_set():
                        status, _, _ = get(server.url + "/metrics")
                        assert status == 200
                        status, payload = get_json(server.url + "/healthz")
                        assert status in (200, 503)
                        status, listing = get_json(server.url + "/incidents")
                        assert status == 200
                        scraped.append(listing["count"])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=scrape) for _ in range(3)]
            for t in threads:
                t.start()
            # Feed and dump continuously while the scrapers hammer the
            # read-only routes.
            for _ in range(10):
                keys = rng.integers(0, 80, size=512).tolist()
                values = rng.lognormal(4.0, 0.6, size=512).tolist()
                recorder.feed(keys, values)
                recorder.dump("stress")
            stop.set()
            for t in threads:
                t.join()

        assert errors == []
        assert scraped, "scrapers must have completed at least one pass"
        assert recorder.dumps_total == 10
        # Every listing observed a consistent prefix of the dumps.
        assert all(0 <= count <= 10 for count in scraped)


class TestAlertsRoute:
    def make_alerted_source(self):
        from repro.observability.alerts import AlertRule
        from repro.observability.timeseries import MetricStore

        now = {"t": 0.0}
        store = MetricStore(clock=lambda: now["t"])
        rules = [AlertRule(
            name="items-high", expr="value(qf_items_total) > 100",
            severity="critical", resolve=50.0,
        )]
        source = FilterServeSource(fed_filter(), rules=rules, store=store)
        return source, now

    def test_alerts_route_serves_engine_state(self):
        source, now = self.make_alerted_source()
        source.tick(now=0.0)
        with HealthServer(source) as server:
            status, payload = get_json(server.url + "/alerts")
        assert status == 200
        assert payload["rules"] == 1
        assert payload["firing"] == ["items-high"]
        (alert,) = payload["alerts"]
        assert alert["state"] == "firing"
        assert alert["rule"]["expr"] == "value(qf_items_total) > 100"

    def test_alerts_stub_without_engine(self):
        """An empty rule pack serves an empty engine state (and the
        default pack is attached when no rules are given)."""
        with serve_filter(fed_filter(), rules=[]) as server:
            status, payload = get_json(server.url + "/alerts")
        assert status == 200
        assert (payload["rules"], payload["firing"], payload["alerts"]) == (
            0, [], []
        )
        default = FilterServeSource(fed_filter(num_items=500))
        assert default.alerts_payload()["rules"] == len(default_rules())

    def test_routes_listing_includes_alerts(self):
        with serve_filter(fed_filter()) as server:
            try:
                get(server.url + "/bogus")
            except urllib.error.HTTPError as err:
                payload = json.loads(err.read().decode())
            else:  # pragma: no cover
                pytest.fail("expected a 404")
        assert "/alerts" in payload["routes"]

    def test_firing_rule_folds_into_healthz_and_metrics(self):
        """Acceptance slice: /healthz goes 503 naming the rule, and
        /metrics exports qf_alert_state / qf_alerts_fired_total."""
        source, now = self.make_alerted_source()
        source.tick(now=0.0)
        with HealthServer(source) as server:
            try:
                get(server.url + "/healthz")
            except urllib.error.HTTPError as err:
                assert err.code == 503
                payload = json.loads(err.read().decode())
            else:  # pragma: no cover
                pytest.fail("firing critical rule must 503")
            _, metrics, _ = get(server.url + "/metrics")
        assert payload["verdict"] == "critical"
        assert any(
            "rule items-high firing" in reason
            for reason in payload["reasons"]
        )
        assert ('qf_alert_state{rule="items-high",severity="critical"} 2'
                in metrics)
        assert 'qf_alerts_fired_total{rule="items-high"} 1' in metrics
        assert "qf_store_points_ingested_total" in metrics

    def test_tick_returns_transitions_and_respects_throttle(self):
        from repro.observability.alerts import AlertRule
        from repro.observability.timeseries import MetricStore

        now = {"t": 0.0}
        store = MetricStore(step_seconds=10.0, clock=lambda: now["t"])
        source = FilterServeSource(
            fed_filter(),
            rules=[AlertRule(
                name="items-high", expr="value(qf_items_total) > 100",
                resolve=50.0,
            )],
            store=store,
        )
        transitions = source.tick(now=0.0)
        assert [t.new_state for t in transitions] == ["firing"]
        # Within step_seconds the collect is throttled, so no
        # re-evaluation happens either.
        assert source.tick(now=3.0) == []
        assert store.collections_skipped == 1


class TestProcessGauges:
    def test_metrics_include_process_family(self):
        source = FilterServeSource(fed_filter())
        snapshot = source.metrics_snapshot()
        assert snapshot["qf_process_rss_bytes"] > 0
        assert snapshot["qf_uptime_seconds"] >= 0
        assert snapshot["qf_gc_collections_total"] >= 0

    def test_process_gauges_stay_off_the_filter_registry(self):
        """The separate registry protects aggregate == shard-sum
        invariants: the filter's own registry must not grow process
        samples."""
        source = FilterServeSource(fed_filter())
        assert "qf_process_rss_bytes" not in source.registry.snapshot()
        assert "qf_process_rss_bytes" in source.process_registry.snapshot()


class TestScrapesDoNotMoveTheVerdict:
    """Regression: only tick() advances the verdict.

    A scrape must not re-run the health evaluation: that would move the
    report-rate window, so one /healthz between two ticks would change
    the next tick's report_rate.  Every route reads the last tick.
    """

    @staticmethod
    def scrape(url):
        try:
            get(url)
        except urllib.error.HTTPError as err:  # a 503 is still a read
            err.read()

    def run(self, scrape):
        from repro.observability.timeseries import MetricStore

        filt = QuantileFilter(DRIFT_CRIT, **DRIFT_GEOMETRY)
        clock = {"t": 0.0}
        source = FilterServeSource(
            filt, store=MetricStore(clock=lambda: clock["t"])
        )
        keys, values = drift_stream(12_000)
        ticks = []
        with HealthServer(source) as server:
            for start in range(0, keys.shape[0], 2_048):
                for lo in (start, start + 1_024):
                    k, v = keys[lo:lo + 1_024], values[lo:lo + 1_024]
                    filt.insert_many(k, v)
                    source.monitor.observe_batch(k, v)
                    if scrape and lo == start:
                        for _ in range(3):
                            self.scrape(server.url + "/healthz")
                            self.scrape(server.url + "/metrics")
                            self.scrape(server.url + "/health/shards")
                source.tick(now=clock["t"])
                clock["t"] += 1.0
                ticks.append(source.report().as_dict())
        return ticks

    def test_scrapes_between_ticks_leave_the_next_tick_unchanged(self):
        scraped = self.run(scrape=True)
        assert scraped == self.run(scrape=False)
        # The stream does report, so an unstable window would show.
        assert any(
            signal["name"] == "report_rate" and signal["value"] > 0
            for tick in scraped for signal in tick["signals"]
        )
