"""MetricStore/Series: bounded retention, accounting, derivations."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParameterError
from repro.observability.timeseries import (
    DERIVATIONS,
    POINT_DERIVATIONS,
    STORE_METRIC_HELP,
    WINDOW_DERIVATIONS,
    MetricStore,
    Series,
)


def accounting_holds(series: Series) -> bool:
    return series.fine_count + series.evicted == series.ingested


class TestSeries:
    def test_fine_ring_keeps_newest_capacity_points(self):
        series = Series("s", capacity=8)
        for tick in range(50):
            series.append(float(tick), float(tick * 10))
        assert series.fine_count == 8
        ts, vs = series.points()
        assert ts.tolist() == [float(t) for t in range(42, 50)]
        assert vs.tolist() == [float(t * 10) for t in range(42, 50)]
        assert series.last == (49.0, 490.0)

    def test_append_many_matches_scalar_appends(self):
        scalar = Series("a", capacity=16)
        bulk = Series("b", capacity=16)
        ts = np.arange(200, dtype=np.float64)
        vs = np.sqrt(ts + 1.0)
        for t, v in zip(ts, vs):
            scalar.append(float(t), float(v))
        # Mixed batch sizes: some fit the ring, some overflow it.
        for begin in (0, 3, 50, 67, 130):
            end = {0: 3, 3: 50, 50: 67, 67: 130, 130: 200}[begin]
            bulk.append_many(ts[begin:end], vs[begin:end])
        assert bulk.ingested == scalar.ingested == 200
        assert np.array_equal(bulk.points()[0], scalar.points()[0])
        assert np.array_equal(bulk.points()[1], scalar.points()[1])
        assert bulk.evicted == scalar.evicted
        assert accounting_holds(bulk)

    def test_append_many_rejects_mismatched_shapes(self):
        series = Series("s", capacity=4)
        with pytest.raises(ParameterError):
            series.append_many([1.0, 2.0], [1.0])

    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            Series("s", capacity=1)

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(min_value=2, max_value=20),
        batches=st.lists(
            st.integers(min_value=1, max_value=50), min_size=1, max_size=12
        ),
    )
    def test_accounting_invariant_under_random_geometry(
        self, capacity, batches
    ):
        series = Series("s", capacity=capacity)
        tick = 0
        for batch in batches:
            ts = np.arange(tick, tick + batch, dtype=np.float64)
            series.append_many(ts, ts * 2.0)
            tick += batch
            assert accounting_holds(series)
            assert series.fine_count <= capacity


class TestMetricStoreCollection:
    def test_collect_one_series_per_sample(self):
        store = MetricStore(clock=lambda: 0.0)
        assert store.collect({"a_total": 1.0, "b": 2.0}, now=0.0)
        assert store.collect({"a_total": 2.0, "b": 3.0}, now=1.0)
        assert store.names() == ["a_total", "b"]
        assert store.points_ingested == 4
        assert len(store) == 2

    def test_step_throttle_skips_and_counts(self):
        store = MetricStore(step_seconds=5.0, clock=lambda: 0.0)
        assert store.collect({"a": 1.0}, now=0.0)
        assert not store.collect({"a": 2.0}, now=3.0)
        assert store.collect({"a": 3.0}, now=5.0)
        assert store.collections == 2
        assert store.collections_skipped == 1
        samples = store.samples()
        assert samples["qf_store_collections_skipped_total"] == 1.0

    def test_non_numeric_values_are_skipped(self):
        store = MetricStore(clock=lambda: 0.0)
        store.collect({"a": 1.0, "b": "not-a-number", "c": None}, now=0.0)
        assert store.names() == ["a"]

    def test_max_series_evicts_stalest(self):
        store = MetricStore(max_series=2, clock=lambda: 0.0)
        store.collect({"old": 1.0}, now=0.0)
        store.collect({"old": 2.0, "mid": 1.0}, now=1.0)
        # "old" saw an update at t=1 too; "mid" is now the stalest once
        # "old" keeps updating.
        store.collect({"old": 3.0, "new": 1.0}, now=2.0)
        assert "mid" not in store.names()
        assert store.series_evicted == 1
        # The exact lookup misses, and the family index forgets the
        # evicted series too.
        assert store.series_for("mid") == []
        # The evicted series' weight stays in the global accounting:
        # 3 appends to "old", 1 to the evicted "mid", 1 to "new".
        assert store.points_ingested == 5
        assert (
            store.points_ingested
            == store.retained_points + store.points_evicted
        )

    def test_store_samples_are_registered_metrics(self):
        from repro.observability.registry import SPEC_INDEX

        store = MetricStore(clock=lambda: 0.0)
        store.collect({"a": 1.0}, now=0.0)
        for name in store.samples():
            assert name in STORE_METRIC_HELP
            assert name in SPEC_INDEX

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            MetricStore(step_seconds=-1.0)
        with pytest.raises(ParameterError):
            MetricStore(max_series=0)

    def test_concurrent_collect_and_window(self):
        store = MetricStore(clock=lambda: 0.0)
        errors = []

        def writer():
            for tick in range(300):
                store.collect({"a_total": float(tick)}, now=float(tick))

        def reader():
            try:
                for _ in range(300):
                    ts, vs = store.window("a_total", 1e9, now=300.0)
                    assert ts.size == vs.size
                    store.derive("value", "a_total")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestDerivations:
    @pytest.fixture()
    def store(self):
        store = MetricStore(clock=lambda: 9.0)
        for tick in range(10):
            store.collect(
                {"c_total": tick * 100.0, "g": float(tick % 4)},
                now=float(tick),
            )
        return store

    def test_rate_is_exact_over_window(self, store):
        assert store.derive("rate", "c_total", window=5.0, now=9.0) == 100.0

    def test_delta_is_last_minus_first(self, store):
        assert store.derive("delta", "c_total", window=4.0, now=9.0) == 400.0

    def test_rate_ignores_counter_resets(self):
        store = MetricStore(clock=lambda: 4.0)
        for tick, value in enumerate([100.0, 200.0, 0.0, 100.0, 200.0]):
            store.collect({"c_total": value}, now=float(tick))
        # Positive increments: 100 + 100 + 100 over 4 seconds.
        assert store.derive("rate", "c_total", window=10.0, now=4.0) == 75.0

    def test_labelled_series_pool_under_family_name(self):
        store = MetricStore(clock=lambda: 2.0)
        for tick in range(3):
            store.collect(
                {
                    'c_total{shard="0"}': tick * 10.0,
                    'c_total{shard="1"}': tick * 30.0,
                },
                now=float(tick),
            )
        # Per-series rates sum: 10/s + 30/s.
        assert store.derive("rate", "c_total", window=10.0, now=2.0) == 40.0
        # Exact sample name isolates one series.
        assert store.derive(
            "rate", 'c_total{shard="1"}', window=10.0, now=2.0
        ) == 30.0
        # value() sums the latest points.
        assert store.derive("value", "c_total") == 80.0

    def test_mean_max_min_are_exact(self, store):
        assert store.derive("mean", "g", window=100.0, now=9.0) == pytest.approx(
            np.mean([t % 4 for t in range(10)])
        )
        assert store.derive("max", "g", window=100.0, now=9.0) == 3.0
        assert store.derive("min", "g", window=100.0, now=9.0) == 0.0

    def test_percentile_within_log_bucket_resolution(self):
        store = MetricStore(clock=lambda: 999.0)
        values = np.linspace(1.0, 1000.0, 500)
        store.ingest_many(
            "lat", np.arange(values.size, dtype=np.float64), values
        )
        p90 = store.derive("p90", "lat", window=1e6, now=999.0)
        exact = float(np.percentile(values, 90.0))
        assert abs(p90 - exact) / exact < 0.15

    def test_value_and_age(self, store):
        assert store.derive("value", "g") == 1.0
        assert store.derive("age", "g", now=12.0) == 3.0

    def test_missing_metric_returns_none(self, store):
        for fn in DERIVATIONS:
            window = 10.0 if fn in WINDOW_DERIVATIONS else None
            assert store.derive(fn, "nope", window=window, now=9.0) is None

    def test_window_requirements_enforced(self, store):
        with pytest.raises(ParameterError):
            store.derive("rate", "c_total")
        with pytest.raises(ParameterError):
            store.derive("value", "c_total", window=5.0)
        with pytest.raises(ParameterError):
            store.derive("frobnicate", "c_total")

    def test_derivation_catalogue_is_consistent(self):
        assert set(DERIVATIONS) == set(POINT_DERIVATIONS) | set(
            WINDOW_DERIVATIONS
        )


class TestSoak:
    def test_ten_million_tick_soak_stays_bounded(self):
        """Acceptance: 10M ingested points hold retention <= the
        configured bound, with eviction counters accounting for every
        point not retained."""
        store = MetricStore(capacity=240, clock=lambda: 0.0)
        total = 10_000_000
        batch = 100_000
        series_names = [f"soak_{i}" for i in range(4)]
        tick = 0
        for _ in range(total // (batch * len(series_names))):
            ts = np.arange(tick, tick + batch, dtype=np.float64)
            for name in series_names:
                store.ingest_many(name, ts, ts * 0.5)
            tick += batch
        assert store.points_ingested == total
        # Per-series bound: the fine ring.
        per_series_bound = 240
        assert store.retained_points <= per_series_bound * len(series_names)
        assert (
            store.points_ingested
            == store.retained_points + store.points_evicted
        )
        # The memory estimate stays a few tens of KiB, not O(total).
        assert store.nbytes < 64 * 1024
        # Newest points are exact: the fine ring ends at the last tick.
        ts, _ = store.window("soak_0", 1e12, now=float(tick))
        assert ts[-1] == float(tick - 1)
