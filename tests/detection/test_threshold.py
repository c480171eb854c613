"""Tests for repro.detection.threshold.

Estimator accuracy against numpy's exact quantiles, the controller's
guard chain (warmup / dwell / deadband / horizon), and the control
loop's binding to every retargetable engine.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.threshold import (
    ESTIMATOR_BACKENDS,
    KLLQuantileEstimator,
    P2QuantileEstimator,
    ThresholdControlLoop,
    ThresholdController,
    make_estimator,
)

CRIT = Criteria(delta=0.5, threshold=100.0, epsilon=2.0)


class TestP2Estimator:
    def test_empty_is_nan(self):
        est = P2QuantileEstimator(0.95)
        assert est.quantile() != est.quantile()  # NaN
        assert est.count == 0

    def test_small_samples_exact(self):
        est = P2QuantileEstimator(0.5)
        for v in [10.0, 30.0, 20.0]:
            est.update(v)
        assert est.quantile() == 20.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_tracks_uniform(self, q):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1000.0, size=20_000)
        est = P2QuantileEstimator(q)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, q))
        assert est.quantile() == pytest.approx(exact, rel=0.05)

    def test_tracks_lognormal(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(3.0, 1.0, size=20_000)
        est = P2QuantileEstimator(0.95)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, 0.95))
        assert est.quantile() == pytest.approx(exact, rel=0.15)

    def test_clear(self):
        est = P2QuantileEstimator(0.5)
        for v in range(100):
            est.update(float(v))
        est.clear()
        assert est.count == 0
        assert est.quantile() != est.quantile()

    def test_constant_space(self):
        est = P2QuantileEstimator(0.9)
        before = est.nbytes
        for v in range(10_000):
            est.update(float(v % 97))
        assert est.nbytes == before

    def test_invalid_quantile(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                P2QuantileEstimator(q)


class TestKLLEstimator:
    def test_empty_is_nan(self):
        est = KLLQuantileEstimator(0.95)
        assert est.quantile() != est.quantile()

    def test_tracks_uniform(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1000.0, size=20_000)
        est = KLLQuantileEstimator(0.95, seed=1)
        for v in values.tolist():
            est.update(v)
        exact = float(np.quantile(values, 0.95))
        assert est.quantile() == pytest.approx(exact, rel=0.05)

    def test_clear_and_merge(self):
        a = KLLQuantileEstimator(0.5, seed=0)
        b = KLLQuantileEstimator(0.5, seed=0)
        for v in range(1_000):
            a.update(float(v))
            b.update(float(v))
        a.merge(b)
        assert a.count == 2_000
        a.clear()
        assert a.count == 0


class TestFactory:
    @pytest.mark.parametrize("backend", ESTIMATOR_BACKENDS)
    def test_builds_each_backend(self, backend):
        est = make_estimator(backend, 0.9, seed=2)
        est.update(1.0)
        assert est.count == 1

    def test_unknown_backend(self):
        with pytest.raises(ParameterError):
            make_estimator("reservoir", 0.9)


class TestControllerGuards:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 1.5)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, deadband=-0.1)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, min_dwell_items=0)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, warmup_items=0)
        with pytest.raises(ParameterError):
            ThresholdController(100.0, 0.9, warmup_items=100,
                                horizon_items=50)

    def test_warmup_holds_threshold(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=50, min_dwell_items=1
        )
        for v in range(49):
            decision = controller.observe(float(v))
            assert not decision.retargeted
            assert decision.reason in ("warmup", "empty")
        assert controller.threshold == 100.0

    def test_retargets_after_warmup(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.01
        )
        decision = None
        for v in range(50):
            decision = controller.observe(float(v))
        assert controller.retargets >= 1
        assert controller.threshold != 100.0
        # Median of 0..49 is ~24.5; P2 should land near it.
        assert 15.0 <= controller.threshold <= 35.0
        assert decision.items_seen == 50

    def test_dwell_bounds_retarget_rate(self):
        controller = ThresholdController(
            1000.0, 0.5, warmup_items=10, min_dwell_items=100, deadband=0.0
        )
        for v in range(1_000):
            controller.observe(float(v % 50))
        # 1000 observations / dwell 100 => at most 10 moves.
        assert controller.retargets <= 10
        dwell_reasons = [
            controller.observe(float(v % 50)).reason for v in range(50)
        ]
        assert "dwell" in dwell_reasons

    def test_deadband_suppresses_jitter(self):
        controller = ThresholdController(
            50.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.10
        )
        # Stationary stream with median ~50: every estimate stays
        # within 10 % of the standing threshold, so T never moves.
        rng = np.random.default_rng(5)
        for v in rng.uniform(49.0, 51.0, size=500).tolist():
            decision = controller.observe(v)
        assert controller.retargets == 0
        assert decision.reason == "deadband"

    def test_zero_deadband_chases_estimate(self):
        controller = ThresholdController(
            50.0, 0.5, warmup_items=10, min_dwell_items=1, deadband=0.0
        )
        for v in [49.0, 51.0] * 50:
            controller.observe(v)
        assert controller.retargets >= 1

    def test_horizon_restarts_estimator(self):
        controller = ThresholdController(
            100.0, 0.5, warmup_items=10, min_dwell_items=1,
            horizon_items=100,
        )
        for v in range(1_000):
            controller.observe(float(v))
        assert controller.restarts == 9
        # After restarts the estimate reflects recent values only.
        assert controller.threshold > 700.0

    def test_horizon_tracks_regime_change(self):
        bounded = ThresholdController(
            10.0, 0.5, warmup_items=20, min_dwell_items=1,
            horizon_items=200, deadband=0.01,
        )
        cumulative = ThresholdController(
            10.0, 0.5, warmup_items=20, min_dwell_items=1, deadband=0.01,
        )
        stream = [10.0] * 1_000 + [1_000.0] * 1_000
        for v in stream:
            bounded.observe(v)
            cumulative.observe(v)
        # The bounded controller converges to the new regime's median;
        # the cumulative one is stuck between the regimes.
        assert bounded.threshold == pytest.approx(1_000.0, rel=0.05)
        assert cumulative.threshold < 900.0

    def test_observe_many_matches_observe_loop(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 100.0, size=2_000)
        one = ThresholdController(50.0, 0.9, warmup_items=100,
                                  min_dwell_items=100)
        many = ThresholdController(50.0, 0.9, warmup_items=100,
                                   min_dwell_items=100)
        for v in values.tolist():
            one.observe(v)
        for chunk in np.split(values, 20):
            many.observe_many(chunk)
        # Same estimator state => same final estimate; decision cadence
        # differs (one per chunk), so only the end state must agree.
        assert many.estimator.quantile() == one.estimator.quantile()
        assert many.items_seen == one.items_seen

    def test_custom_estimator(self):
        est = P2QuantileEstimator(0.75)
        controller = ThresholdController(
            10.0, 0.75, estimator=est, warmup_items=10, min_dwell_items=1
        )
        assert controller.backend == "custom"
        for v in range(100):
            controller.observe(float(v))
        assert controller.estimator is est

    def test_target_rate(self):
        controller = ThresholdController(10.0, 0.95)
        assert controller.target_rate == pytest.approx(0.05)


def estimator_bits(estimator):
    """Everything observable about an estimator's state, NaN-safe."""
    state = (estimator.count, estimator.quantile().hex())
    if isinstance(estimator, P2QuantileEstimator):
        state += (tuple(v.hex() for v in estimator._heights),
                  tuple(v.hex() for v in estimator._positions))
    return state


def decision_bits(decision):
    return (decision.retargeted, decision.reason, decision.items_seen,
            decision.threshold.hex(), decision.previous.hex(),
            decision.estimate.hex())


def controller(backend, horizon=None):
    return ThresholdController(
        500.0, 0.9, backend=backend, warmup_items=16, min_dwell_items=16,
        horizon_items=horizon,
    )


@pytest.mark.parametrize("backend", ESTIMATOR_BACKENDS)
class TestObserveManyMatchesObserve:
    """``observe_many`` leaves the estimator where an ``observe`` loop does."""

    @given(sizes=st.lists(st.integers(0, 400), min_size=1, max_size=8),
           horizon=st.integers(16, 300), seed=st.integers(0, 2 ** 16))
    def test_any_chunking_against_any_horizon(self, backend, sizes,
                                              horizon, seed):
        values = np.random.default_rng(seed).uniform(0.0, 1_000.0,
                                                     size=sum(sizes))
        one, many = controller(backend, horizon), controller(backend, horizon)
        for value in values.tolist():
            one.observe(value)
        at = 0
        for size in sizes:
            many.observe_many(values[at:at + size])
            at += size
        assert many.restarts == one.restarts
        assert many.items_seen == one.items_seen
        assert estimator_bits(many.estimator) == estimator_bits(one.estimator)

    def test_one_batch_across_several_horizons(self, backend):
        values = np.random.default_rng(2).uniform(0.0, 1_000.0, size=20_480)
        many = controller(backend, horizon=4_096)
        many.observe_many(values)
        assert many.restarts == 4
        assert many.estimator.count == 4_096


@pytest.mark.parametrize("backend", ESTIMATOR_BACKENDS)
class TestNaNIsDropped:
    """NaN never reaches an estimator and is not counted as seen."""

    def stream(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 1_000.0, size=20_000)
        values[0] = np.nan
        values[rng.choice(values.size, size=2_000, replace=False)] = np.nan
        return values

    def test_batches_decide_as_if_nan_were_removed(self, backend):
        values = self.stream()
        noisy, clean = controller(backend, 4_096), controller(backend, 4_096)
        for part in np.array_split(values, 37):
            decided = noisy.observe_many(part)
            expected = clean.observe_many(part[~np.isnan(part)])
            assert decision_bits(decided) == decision_bits(expected)
        assert noisy.threshold == clean.threshold
        assert noisy.items_seen == np.count_nonzero(~np.isnan(values))
        assert noisy.retargets > 0

    def test_singles_decide_as_if_nan_were_removed(self, backend):
        values = self.stream()[:5_000]
        noisy, clean = controller(backend, 1_024), controller(backend, 1_024)
        for value in values.tolist():
            decided = noisy.observe(value)
            if value == value:
                expected = clean.observe(value)
                assert decision_bits(decided) == decision_bits(expected)
            else:
                assert not decided.retargeted
                assert decided.items_seen == clean.items_seen
                assert decided.threshold == clean.threshold
        assert noisy.threshold == clean.threshold
        assert noisy.retargets > 0

    def test_all_nan_batch_leaves_state_alone(self, backend):
        ctl = controller(backend)
        decision = ctl.observe_many([np.nan] * 8)
        assert decision.reason == "empty" and ctl.items_seen == 0
        assert ctl.estimator.count == 0

    def test_infinities_count(self, backend):
        ctl = controller(backend)
        ctl.observe_many([np.inf, -np.inf, 1.0, np.nan])
        ctl.observe(np.inf)
        assert ctl.items_seen == 4 and ctl.estimator.count == 4


class TestControlLoop:
    def make_filter(self, threshold=1_000.0):
        return QuantileFilter(
            Criteria(delta=0.5, threshold=threshold, epsilon=2.0),
            num_buckets=8, vague_width=16,
        )

    def test_rejects_target_without_retarget(self):
        with pytest.raises(ParameterError):
            ThresholdControlLoop(ThresholdController(10.0, 0.5), object())

    def test_rejects_bad_stride(self):
        with pytest.raises(ParameterError):
            ThresholdControlLoop(
                ThresholdController(10.0, 0.5), self.make_filter(),
                sample_every=0,
            )

    def test_applies_retargets_to_filter(self):
        qf = self.make_filter()
        loop = ThresholdControlLoop(
            ThresholdController(1_000.0, 0.5, warmup_items=16,
                                min_dwell_items=16),
            qf,
        )
        for i in range(200):
            qf.insert("k", float(i % 10))
            loop.observe(float(i % 10))
        assert qf.retargets >= 1
        assert qf.criteria.threshold < 1_000.0
        assert qf.criteria.threshold == loop.threshold
        assert loop.trajectory
        items_seen, old, new = loop.trajectory[0]
        assert old == 1_000.0 and new == loop.trajectory[0][2]

    def test_batch_engine_retargets_at_chunk_boundary(self):
        batch = BatchQuantileFilter(
            Criteria(delta=0.5, threshold=1_000.0, epsilon=2.0),
            num_buckets=8, vague_width=16,
        )
        loop = ThresholdControlLoop(
            ThresholdController(1_000.0, 0.5, warmup_items=32,
                                min_dwell_items=32),
            batch,
        )
        keys = np.zeros(64, dtype=np.int64)
        values = np.full(64, 5.0)
        for _ in range(4):
            batch.process(keys, values)
            loop.observe_many(values)
        assert batch.retargets >= 1
        assert batch.criteria.threshold == pytest.approx(5.0)

    def test_stride_subsampling_consumes_every_nth(self):
        controller = ThresholdController(10.0, 0.5, warmup_items=1,
                                         min_dwell_items=10_000)
        loop = ThresholdControlLoop(controller, self.make_filter(),
                                    sample_every=4)
        for i in range(100):
            loop.observe(float(i))
        assert controller.items_seen == 25

    def test_stride_batches_match_stride_singles(self):
        values = np.arange(1_000, dtype=np.float64)
        single = ThresholdControlLoop(
            ThresholdController(10.0, 0.5, warmup_items=1,
                                min_dwell_items=10_000),
            self.make_filter(), sample_every=7,
        )
        batched = ThresholdControlLoop(
            ThresholdController(10.0, 0.5, warmup_items=1,
                                min_dwell_items=10_000),
            self.make_filter(), sample_every=7,
        )
        for v in values.tolist():
            single.observe(v)
        # Ragged chunking exercises the stride-phase carry.
        at = 0
        for size in (13, 1, 256, 64, 666):
            batched.observe_many(values[at:at + size])
            at += size
        assert at == len(values)
        assert (batched.controller.items_seen
                == single.controller.items_seen)
        assert (batched.controller.estimator.quantile()
                == single.controller.estimator.quantile())

    def test_observe_many_empty_stride_returns_none(self):
        loop = ThresholdControlLoop(
            ThresholdController(10.0, 0.5), self.make_filter(),
            sample_every=64,
        )
        assert loop.observe_many(np.arange(3, dtype=np.float64)) is None
