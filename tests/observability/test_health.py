"""Health signals: gauges, definedness gates, drift detection, folding.

The monitor only measures; the default rule pack judges.  Each signal
test therefore checks the gauge the monitor emits *and* the verdict the
shipped rules reach on it.
"""

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.inspect import structural_probe
from repro.core.quantile_filter import QuantileFilter
from repro.observability.alerts import AlertEngine, default_rules
from repro.observability.health import (
    HEALTH_METRIC_HELP,
    SIGNAL_FAMILIES,
    ExceedanceDriftDetector,
    HealthMonitor,
    signal_values,
    verdict_rank,
    worst_verdict,
)
from repro.observability.instrument import observe_filter
from repro.observability.registry import (
    SPEC_INDEX,
    StatsRegistry,
    aggregate_snapshots,
)
from repro.observability.server import FilterServeSource
from repro.observability.timeseries import MetricStore
from tests.observability.test_server import fed_filter

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)


def snapshot(**families):
    """Shorthand: snake_case kwargs to a qf_* snapshot dict."""
    base = {"qf_items_total": 50_000.0}
    base.update(families)
    return base


def gauges(snap, **kwargs):
    """The signal gauges one fresh monitor emits for ``snap``."""
    return HealthMonitor().samples(snap, **kwargs)


def judge(samples):
    """``(verdict, signals of the firing rules)`` after one tick of the
    default rule pack over ``samples``."""
    store = MetricStore(clock=lambda: 0.0)
    engine = AlertEngine(store, default_rules())
    store.collect(samples)
    engine.evaluate()
    firing = {rule.labels.get("signal") for rule in engine.firing()}
    return engine.verdict(), firing


class TestVerdicts:
    def test_rank_ordering(self):
        assert verdict_rank("ok") < verdict_rank("degraded")
        assert verdict_rank("degraded") < verdict_rank("critical")

    def test_unknown_verdict_raises(self):
        with pytest.raises(ParameterError):
            verdict_rank("meh")

    def test_worst_verdict_empty_is_ok(self):
        assert worst_verdict([]) == "ok"

    def test_worst_verdict_picks_most_severe(self):
        assert worst_verdict(["ok", "critical", "degraded"]) == "critical"


class TestSignals:
    def test_all_ok_on_benign_snapshot(self):
        samples = gauges(snapshot(
            qf_candidate_occupancy=0.5,
            qf_candidate_swaps_total=100.0,
            qf_vague_inserts_total=500.0,
            qf_vague_saturation=0.0,
            qf_reports_total=10.0,
        ))
        assert set(signal_values(samples)) == {
            "candidate_occupancy", "candidate_churn", "vague_pressure",
            "vague_saturation", "report_rate",
        }
        assert judge(samples) == ("ok", set())

    def test_occupancy_degraded_above_threshold(self):
        samples = gauges(snapshot(qf_candidate_occupancy=0.99))
        assert samples["qf_health_candidate_occupancy"] == 0.99
        assert judge(samples) == ("degraded", {"candidate_occupancy"})

    def test_churn_degraded(self):
        samples = gauges(snapshot(qf_candidate_swaps_total=25_000.0))
        assert samples["qf_health_candidate_churn"] == 0.5
        assert judge(samples) == ("degraded", {"candidate_churn"})

    def test_vague_pressure_degraded(self):
        samples = gauges(snapshot(qf_vague_inserts_total=10_000.0))
        assert samples["qf_health_vague_pressure"] == 0.2
        assert judge(samples) == ("degraded", {"vague_pressure"})

    def test_saturation_critical_above_critical_threshold(self):
        samples = gauges(snapshot(qf_vague_saturation=0.3))
        assert judge(samples) == ("critical", {"vague_saturation"})

    def test_saturation_degraded_between_thresholds(self):
        samples = gauges(snapshot(qf_vague_saturation=0.1))
        assert judge(samples) == ("degraded", {"vague_saturation"})

    def test_collision_signal_comes_from_probe(self):
        samples = gauges(
            snapshot(), probe={"fingerprint_collision_probability": 0.05},
        )
        assert samples["qf_health_fingerprint_collision"] == 0.05
        assert judge(samples) == ("degraded", {"fingerprint_collision"})
        assert "qf_health_fingerprint_collision" not in gauges(
            snapshot(), probe={}
        )

    def test_noise_signal_relative_to_report_threshold(self):
        probe = {"vague_noise_std": 30.0, "report_threshold": 50.0}
        samples = gauges(snapshot(), probe=probe)
        assert samples["qf_health_vague_noise"] == pytest.approx(0.6)
        assert judge(samples) == ("degraded", {"vague_noise"})
        probe["vague_noise_std"] = 60.0
        assert judge(gauges(snapshot(), probe=probe)) == (
            "critical", {"vague_noise"}
        )

    def test_report_rate_windows_between_evaluations(self):
        monitor = HealthMonitor()
        first = monitor.samples(snapshot(qf_reports_total=10.0))
        assert judge(first) == ("ok", set())
        # 1 000 new reports over 1 000 new items: a 100 % window rate.
        second = monitor.samples({
            "qf_items_total": 51_000.0, "qf_reports_total": 1_010.0,
        })
        assert second["qf_health_report_rate"] == 1.0
        assert judge(second) == ("degraded", {"report_rate"})

    def test_report_rate_survives_counter_reset(self):
        monitor = HealthMonitor()
        monitor.samples(snapshot(qf_reports_total=100.0))
        fresh = monitor.samples({
            "qf_items_total": 2_000.0, "qf_reports_total": 1.0,
        })
        assert fresh["qf_health_report_rate"] == 1.0 / 2_000.0
        assert judge(fresh) == ("ok", set())

    def test_warmup_forces_ok(self):
        samples = gauges({
            "qf_items_total": 10.0,
            "qf_candidate_occupancy": 1.0,
            "qf_vague_saturation": 0.9,
        })
        # A young structure emits no signal at all, so nothing can fire.
        assert signal_values(samples) == {}
        assert judge(samples) == ("ok", set())

    def test_unmet_gates_emit_values_no_rule_trips(self):
        """Past warm-up, an undefined signal still emits — missing data
        would hold a firing rule — but at a value no rule trips on."""
        from repro.detection.shadow import ShadowAccuracyEstimator

        drift = ExceedanceDriftDetector(10.0, window_items=100,
                                        warmup_windows=1)
        drift.observe_batch([50.0] * 100)  # reference set, no shift yet
        shadow = ShadowAccuracyEstimator(CRIT, sample_rate=1)
        monitor = HealthMonitor(drift=drift, shadow=shadow)
        # Two false positives: precision 0, but under 5 decisions.
        samples = monitor.samples(snapshot(), reported_keys={1, 2})
        assert samples["qf_shadow_precision"] == 0.0
        assert samples["qf_health_shadow_accuracy"] == 1.0
        assert samples["qf_health_exceedance_drift"] == 0.0
        assert judge(samples) == ("ok", set())

    def test_workers_alive_critical_when_short(self):
        samples = gauges(
            snapshot(pipeline_workers_alive=1.0), expected_workers=4,
        )
        assert samples["qf_health_workers_missing"] == 3.0
        assert judge(samples) == ("critical", {"workers_alive"})

    def test_workers_alive_not_masked_by_warmup(self):
        samples = gauges(
            {"qf_items_total": 5.0, "pipeline_workers_alive": 0.0},
            expected_workers=2,
        )
        assert judge(samples) == ("critical", {"workers_alive"})

    def test_labelled_samples_fold_into_families(self):
        samples = gauges({
            'qf_items_total{shard="0"}': 25_000.0,
            'qf_items_total{shard="1"}': 25_000.0,
            'qf_candidate_occupancy{shard="0"}': 0.999,
            'qf_candidate_occupancy{shard="1"}': 0.999,
        })
        assert judge(samples) == ("degraded", {"candidate_occupancy"})


class TestDriftDetector:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ExceedanceDriftDetector(1.0, window_items=0)
        with pytest.raises(ParameterError):
            ExceedanceDriftDetector(1.0, warmup_windows=0)

    def test_not_warmed_up_until_warmup_windows(self):
        det = ExceedanceDriftDetector(10.0, window_items=10, warmup_windows=2)
        det.observe_batch([0.0] * 10)
        assert not det.warmed_up
        det.observe_batch([0.0] * 10)
        assert det.warmed_up

    def test_stationary_stream_stays_quiet(self):
        rng = np.random.default_rng(7)
        det = ExceedanceDriftDetector(
            1.0, window_items=500, warmup_windows=2
        )
        values = (rng.random(5_000) < 0.1).astype(float) * 2.0
        det.observe_batch(values)
        assert det.warmed_up
        assert det.last_z < 4.0

    def test_shift_raises_z(self):
        det = ExceedanceDriftDetector(
            10.0, window_items=200, warmup_windows=2
        )
        base = [5.0] * 190 + [50.0] * 10  # 5 % exceedance
        det.observe_batch(base * 2)
        det.observe_batch([5.0] * 100 + [50.0] * 100)  # 50 %
        assert det.last_z > 4.0
        assert det.last_fraction == pytest.approx(0.5)

    def test_scalar_and_batch_paths_agree(self):
        values = list(np.linspace(0.0, 20.0, 400))
        a = ExceedanceDriftDetector(10.0, window_items=50, warmup_windows=2)
        b = ExceedanceDriftDetector(10.0, window_items=50, warmup_windows=2)
        for v in values:
            a.observe(v)
        b.observe_batch(values)
        assert a.last_fraction == b.last_fraction
        assert a.last_z == b.last_z
        assert a.reference == b.reference

    def test_model_emits_drift_signal(self):
        det = ExceedanceDriftDetector(10.0, window_items=100, warmup_windows=1)
        det.observe_batch([5.0] * 95 + [50.0] * 5)
        det.observe_batch([50.0] * 100)
        samples = HealthMonitor(drift=det).samples(snapshot())
        assert samples["qf_health_exceedance_drift"] == det.last_z
        assert samples["qf_drift_z"] == det.last_z
        assert judge(samples) == ("degraded", {"exceedance_drift"})


class TestAggregation:
    def test_worst_wins_per_signal(self):
        """Folding views keeps the worst: the highest signal value, the
        lowest shadow accuracy."""
        merged = aggregate_snapshots([
            {"qf_health_candidate_occupancy": 0.5,
             "qf_health_candidate_churn": 0.3,
             "qf_health_shadow_accuracy": 0.95},
            {"qf_health_candidate_occupancy": 0.99,
             "qf_health_candidate_churn": 0.1,
             "qf_health_shadow_accuracy": 0.7},
        ])
        assert merged == {
            "qf_health_candidate_occupancy": 0.99,
            "qf_health_candidate_churn": 0.3,
            "qf_health_shadow_accuracy": 0.7,
        }
        assert judge(merged) == ("degraded", {
            "candidate_occupancy", "candidate_churn", "shadow_accuracy",
        })

    def test_empty_is_ok(self):
        assert aggregate_snapshots([]) == {}
        assert judge({}) == ("ok", set())


class TestMonitor:
    def test_for_filter_end_to_end(self):
        filt = QuantileFilter(
            CRIT, num_buckets=32, bucket_size=4, vague_width=256, seed=3
        )
        registry = observe_filter(filt, StatsRegistry())
        monitor = HealthMonitor.for_filter(filt, shadow_sample_rate=1)
        rng = np.random.default_rng(0)
        for _ in range(4_000):
            key = int(rng.integers(0, 64))
            value = float(rng.lognormal(4.0, 0.6))
            filt.insert(key, value)
            monitor.observe(key, value)
        samples = monitor.samples(
            registry.snapshot(),
            probe=structural_probe(filt),
            reported_keys=filt.reported_keys,
        )
        assert {"candidate_occupancy", "exceedance_drift",
                "shadow_accuracy"} <= set(signal_values(samples))
        assert "qf_shadow_precision" in samples

    def test_shadow_disabled_mode(self):
        monitor = HealthMonitor.for_criteria(CRIT, shadow_sample_rate=None)
        assert monitor.shadow is None
        monitor.observe_batch(
            np.arange(10), np.full(10, 5.0)
        )  # must not raise

    def test_health_samples_empty_before_first_report(self):
        """Nothing is judged before the first tick."""
        source = FilterServeSource(fed_filter())
        assert signal_values(source.metrics_snapshot()) == {}
        assert source.metrics_snapshot()["qf_health_status"] == 0.0
        assert source.report().signals == ()

    def test_health_samples_render_verdict_ranks(self):
        source = FilterServeSource(fed_filter())
        source.registry.gauge("qf_vague_saturation", agg="mean",
                              labels={"forced": "1"}).set(0.9)
        source.tick()
        samples = source.metrics_snapshot()
        assert samples["qf_health_status"] == 2.0
        # The family mean over the real (0.0) and forced samples.
        assert samples["qf_health_vague_saturation"] == pytest.approx(0.45)
        assert "qf_drift_exceedance_fraction" in samples

    def test_health_families_registered_in_spec_index(self):
        for family in HEALTH_METRIC_HELP:
            assert family in SPEC_INDEX
            assert SPEC_INDEX[family].kind == "gauge"
        for family in SIGNAL_FAMILIES.values():
            assert family in HEALTH_METRIC_HELP
            expected = "min" if family.endswith("shadow_accuracy") else "max"
            assert SPEC_INDEX[family].agg == expected
