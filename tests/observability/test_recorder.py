"""Flight recorder: ring invariant, triggers, bundles, replay."""

import gzip
import itertools
import json

import numpy as np
import pytest

from repro.common.errors import ParameterError, TraceFormatError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.threshold import ThresholdControlLoop, ThresholdController
from repro.observability.alerts import AlertEngine, AlertRule
from repro.observability.recorder import (
    BUNDLE_SCHEMA_VERSION,
    FlightRecorder,
    list_incidents,
    load_bundle,
    observe_recorder,
    replay_bundle,
)
from repro.observability.registry import StatsRegistry
from repro.observability.timeseries import MetricStore
from repro.parallel.concurrent import ConcurrentQuantileFilter

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=64, bucket_size=4, vague_width=512, seed=3)


def make_stream(n, seed=11):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 60, size=n).tolist()
    values = np.where(
        rng.random(n) < 0.15, 400.0, rng.uniform(0.0, 90.0, n)
    ).tolist()
    return keys, values


def scalar_filter(**overrides):
    geometry = dict(GEOMETRY)
    geometry.update(overrides)
    return QuantileFilter(CRIT, **geometry)


def rule_ticks(severity="warning"):
    """A one-rule engine over gauge ``m`` and a tick function returning
    each evaluation's transitions."""
    store = MetricStore(clock=lambda: 0.0)
    engine = AlertEngine(store, [AlertRule(
        name="r", expr="m > 5", severity=severity, resolve=2.0,
    )])
    times = itertools.count(1.0)

    def tick(value):
        now = next(times)
        store.collect({"m": value}, now=now)
        return engine.evaluate(now=now)

    return tick


class TestRingInvariant:
    def test_feed_replays_bit_identically(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt, max_chunks=4)
        keys, values = make_stream(6_000)
        for begin in range(0, len(keys), 500):
            rec.feed(keys[begin:begin + 500], values[begin:begin + 500])
        result = replay_bundle(rec.bundle("test"))
        assert result.ok, result.mismatches
        assert result.fingerprint_ok and result.signals_ok

    def test_ring_rotates_and_stays_replayable(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt, max_chunks=3)
        keys, values = make_stream(8_000)
        for begin in range(0, len(keys), 400):
            rec.feed(keys[begin:begin + 400], values[begin:begin + 400])
        # 20 chunks through a 3-slot ring: rotations happened, the
        # retained window is bounded, and base + chunks still equals
        # the live filter.
        assert rec.retained_chunks <= 3
        assert rec.snapshots_total > 1
        result = replay_bundle(rec.bundle("test"))
        assert result.ok, result.mismatches
        assert result.items_replayed == rec.retained_items

    def test_feed_matches_unrecorded_filter(self):
        keys, values = make_stream(3_000)
        recorded = scalar_filter()
        rec = FlightRecorder(recorded, max_chunks=8)
        plain = scalar_filter()
        rec.feed(keys[:1_000], values[:1_000])
        rec.feed(keys[1_000:], values[1_000:])
        plain.insert_many(keys, values)
        # Recording must never perturb detection behaviour.
        assert recorded.report_count == plain.report_count
        assert recorded.reported_keys == plain.reported_keys

    def test_batch_engine_feed_replays(self):
        filt = BatchQuantileFilter(CRIT, 1 << 16, seed=5, chunk_size=1_024)
        rec = FlightRecorder(filt, max_chunks=4)
        keys, values = make_stream(6_000)
        for begin in range(0, len(keys), 1_024):
            rec.feed(keys[begin:begin + 1_024], values[begin:begin + 1_024])
        result = replay_bundle(rec.bundle("test"))
        assert result.ok, result.mismatches
        assert result.engine == "batch"

    def test_probabilistic_batch_replays(self):
        """The base snapshot carries the swap RNG of a ``probabilistic``
        filter, so a window that starts mid-stream replays exactly."""
        rng = np.random.default_rng(2024)
        keys = rng.zipf(1.3, size=40_000) % 5_000
        values = rng.lognormal(mean=3.0, sigma=1.0, size=40_000)
        crit = Criteria(delta=0.7, threshold=float(np.percentile(values, 80)),
                        epsilon=5.0)
        filt = BatchQuantileFilter(crit, memory_bytes=2_048,
                                   strategy="probabilistic", seed=5)
        filt.process(keys[:10_000], values[:10_000])
        rec = FlightRecorder(filt)
        for begin in range(10_000, 40_000, 2_000):
            rec.feed(keys[begin:begin + 2_000], values[begin:begin + 2_000])
        result = replay_bundle(json.loads(json.dumps(rec.bundle("test"))))
        assert result.ok, result.mismatches
        assert result.chunks_replayed == 15

    @pytest.mark.parametrize("keys, values", [
        ([1.5, 1.9] * 5, [50.0] * 10),
        ([1, 2], [float("nan"), 50.0]),
    ], ids=["float-keys", "nan-value"])
    def test_batch_feed_rejects_bad_chunks_untouched(self, keys, values):
        filt = BatchQuantileFilter(CRIT, **GEOMETRY)
        rec = FlightRecorder(filt, max_chunks=1)
        rec.feed([1, 2, 3], [50.0] * 3)
        with pytest.raises(ParameterError):
            rec.feed(keys, values)
        assert filt.items_processed == 3
        assert rec.retained_chunks == 1
        assert rec.retained_items == 3

    def test_threads_engine_refused(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        with pytest.raises(ParameterError, match="scalar engine.*batch"):
            FlightRecorder(cqf)

    def test_discontinuity_rebases_across_retarget(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt, max_chunks=8)
        keys, values = make_stream(4_000)
        rec.feed(keys[:2_000], values[:2_000])
        filt.retarget(50.0)
        rec.note_discontinuity("retarget:50.0")
        rec.feed(keys[2_000:], values[2_000:])
        # The retained window starts AFTER the retarget, so replay sees
        # a consistent threshold throughout.
        bundle = rec.bundle("test")
        assert bundle["manifest"]["criteria"]["threshold"] == 50.0
        assert any(
            p.get("discontinuity") == "retarget:50.0"
            for p in bundle["forensics"]["probes"]
        )
        result = replay_bundle(bundle)
        assert result.ok, result.mismatches

    def test_parameter_validation(self):
        filt = scalar_filter()
        with pytest.raises(ParameterError):
            FlightRecorder(filt, max_chunks=0)
        with pytest.raises(ParameterError):
            FlightRecorder(filt, max_incidents=0)


class TestForensics:
    def test_periodic_probes_capture_structure_and_stats(self):
        filt = scalar_filter()
        registry = StatsRegistry()
        registry.counter_fn("test_total", lambda: 7.0, help="test")
        rec = FlightRecorder(filt, forensic_every=2, registry=registry)
        keys, values = make_stream(2_000)
        for begin in range(0, len(keys), 250):
            rec.feed(keys[begin:begin + 250], values[begin:begin + 250])
        bundle = rec.bundle("test")
        probes = [p for p in bundle["forensics"]["probes"] if "probe" in p]
        assert probes, "forensic_every=2 over 8 chunks must probe"
        assert "stats" in probes[-1]
        assert probes[-1]["stats"]["test_total"] == 7.0

    def test_control_loop_decisions_ride_the_bundle(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt)
        loop = ThresholdControlLoop(
            ThresholdController(CRIT.threshold, CRIT.delta,
                                warmup_items=64, min_dwell_items=64),
            filt, on_decision=rec.record_decision,
        )
        keys, values = make_stream(1_000)
        for begin in range(0, len(keys), 200):
            chunk_values = values[begin:begin + 200]
            rec.feed(keys[begin:begin + 200], chunk_values)
            loop.observe_many(chunk_values)
        decisions = rec.bundle("test")["forensics"]["decisions"]
        assert decisions
        assert {"retargeted", "threshold", "items_seen"} <= set(decisions[-1])

    def test_provenance_tap(self):
        filt = QuantileFilter(CRIT, collect_provenance=True, **GEOMETRY)
        rec = FlightRecorder(filt)
        keys, values = make_stream(2_000)
        rec.feed(keys, values)
        assert filt.report_count > 0
        prov = rec.bundle("test")["forensics"]["provenance"]
        assert len(prov) == filt.report_count


class TestTriggerPolicy:
    """The trigger: a rule entering firing, whatever its severity."""

    def test_flip_dumps_once_and_dedupes(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        keys, values = make_stream(1_000)
        rec.feed(keys, values)
        tick = rule_ticks(severity="warning")
        assert rec.observe_alerts(tick(1.0)) == []
        (path,) = rec.observe_alerts(tick(9.0))
        assert path.exists()
        manifest = json.loads(
            path.with_name(path.name[:-len(".json.gz")]
                           + ".manifest.json").read_text()
        )
        assert manifest["reason"] == "alert:r"
        # Staying firing must not re-dump; resolving must not dump.
        assert rec.observe_alerts(tick(9.0)) == []
        assert rec.observe_alerts(tick(1.0)) == []
        assert rec.dumps_total == 1
        # Firing again after resolving is a new incident.
        assert len(rec.observe_alerts(tick(9.0))) == 1

    def test_critical_first_report_dumps_without_flip(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        rec.feed(*make_stream(500))
        # The very first evaluation fires straight from inactive.
        (path,) = rec.observe_alerts(rule_ticks(severity="critical")(9.0))
        bundle = load_bundle(path)
        assert bundle["manifest"]["reason"] == "alert:r"
        alert = bundle["forensics"]["extra"]["alert"]
        assert alert["old_state"] == "inactive"
        assert alert["rule"]["severity"] == "critical"

    def test_memory_only_recorder_never_dumps(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt)  # no incident_dir
        rec.feed(*make_stream(500))
        assert rec.observe_alerts(rule_ticks()(9.0)) == []
        with pytest.raises(ParameterError, match="incident_dir"):
            rec.dump("explicit")


class TestBundlesOnDisk:
    def test_dump_round_trips_and_replays(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(
            filt, incident_dir=tmp_path, config={"dataset": "unit"},
        )
        keys, values = make_stream(3_000)
        for begin in range(0, len(keys), 500):
            rec.feed(keys[begin:begin + 500], values[begin:begin + 500])
        path = rec.dump("explicit")
        bundle = load_bundle(path)
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION
        manifest = bundle["manifest"]
        assert manifest["reason"] == "explicit"
        assert manifest["engine"] == "scalar"
        assert manifest["config"] == {"dataset": "unit"}
        assert manifest["criteria"]["threshold"] == CRIT.threshold
        result = replay_bundle(path)
        assert result.ok, result.mismatches
        assert result.items_replayed == manifest["window_items"]

    def test_gzip_payload_is_deterministic_bytes(self, tmp_path):
        # mtime=0 in the gzip header: identical content -> identical
        # bytes, so bundles diff cleanly in artifact stores.
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        rec.feed(*make_stream(500))
        path = rec.dump("explicit")
        raw = path.read_bytes()
        inner = gzip.decompress(raw)
        assert gzip.compress(inner, mtime=0) == raw

    def test_prune_keeps_newest(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path, max_incidents=2)
        rec.feed(*make_stream(200))
        paths = [rec.dump("explicit") for _ in range(4)]
        survivors = sorted(tmp_path.glob("incident-*.json.gz"))
        assert survivors == sorted(paths[-2:])
        # Sidecars are pruned in lockstep.
        assert len(list(tmp_path.glob("incident-*.manifest.json"))) == 2

    def test_list_incidents_recursive_and_newest_first(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path / "shard-0")
        rec.feed(*make_stream(200))
        first = rec.dump("explicit")
        second = rec.dump("explicit")
        manifests = list_incidents(tmp_path)
        assert [m["bundle"] for m in manifests] \
            == [second.name, first.name]
        assert manifests[0]["path"] == str(second)
        assert list_incidents(tmp_path / "missing") == []

    def test_tampered_bundle_fails_replay(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        keys, values = make_stream(2_000)
        rec.feed(keys, values)
        path = rec.dump("explicit")
        bundle = load_bundle(path)
        bundle["chunks"][0]["values"][7] += 1_000.0
        result = replay_bundle(bundle)
        assert not result.ok
        assert not result.fingerprint_ok

    def test_bundle_stores_signal_values_and_replay_compares_them(
        self, tmp_path
    ):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        rec.feed(*make_stream(2_000))
        bundle = load_bundle(rec.dump("explicit"))
        signals = bundle["expected"]["signals"]
        assert "qf_health_candidate_occupancy" in signals
        assert replay_bundle(bundle).signals_ok
        signals["qf_health_report_rate"] += 1.0
        result = replay_bundle(bundle)
        assert result.fingerprint_ok and not result.signals_ok
        assert not result.ok

    def test_unreadable_and_wrong_schema_raise(self, tmp_path):
        garbage = tmp_path / "incident-bad.json.gz"
        garbage.write_bytes(b"not a bundle")
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_bundle(garbage)
        # Version 1 bundles stored a health verdict, not signal values;
        # version 2 stored batch states in a format no longer read.
        for version in (1, 2, 999):
            wrong = tmp_path / f"incident-v{version}.json"
            wrong.write_text(json.dumps({"schema_version": version}))
            with pytest.raises(TraceFormatError, match="unsupported"):
                load_bundle(wrong)


class TestMetrics:
    def test_observe_recorder_exports_gauges(self):
        filt = scalar_filter()
        rec = FlightRecorder(filt, max_chunks=4)
        registry = observe_recorder(rec)
        rec.feed(*make_stream(1_000))
        snap = registry.snapshot()
        assert snap["qf_recorder_retained_chunks"] == rec.retained_chunks
        assert snap["qf_recorder_retained_items"] == 1_000
        assert snap["qf_recorder_retained_bytes"] == 16_000
        assert snap["qf_recorder_snapshots_total"] == rec.snapshots_total
        assert snap["qf_recorder_dumps_total"] == 0

    def test_dump_counters_advance(self, tmp_path):
        filt = scalar_filter()
        rec = FlightRecorder(filt, incident_dir=tmp_path)
        registry = observe_recorder(rec, labels={"role": "shard-0"})
        rec.feed(*make_stream(300))
        rec.dump("explicit")
        snap = registry.snapshot()
        assert snap['qf_recorder_dumps_total{role="shard-0"}'] == 1
        assert snap['qf_recorder_last_dump_unix{role="shard-0"}'] > 0
