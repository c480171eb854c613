"""Tests for repro.core.persistence (checkpoint/restore)."""

import json
import random

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.core.criteria import Criteria
from repro.core.persistence import (
    engine_state,
    load_filter,
    restore_engine,
    save_filter,
    state_fingerprint,
    state_from_jsonable,
    state_to_jsonable,
)
from repro.core.quantile_filter import QuantileFilter


def build_warm_filter(**kwargs) -> QuantileFilter:
    crit = Criteria(delta=0.95, threshold=200.0, epsilon=10.0)
    defaults = dict(memory_bytes=16 * 1024, seed=3)
    defaults.update(kwargs)
    qf = QuantileFilter(crit, **defaults)
    rng = random.Random(1)
    for _ in range(5_000):
        key = rng.randrange(300)
        value = 500.0 if key < 10 else rng.uniform(0, 150)
        qf.insert(key, value)
    return qf


class TestRoundTrip:
    def test_queries_identical_after_restore(self, tmp_path):
        original = build_warm_filter()
        path = tmp_path / "filter.npz"
        save_filter(original, path)
        restored = load_filter(path)
        for key in range(300):
            assert restored.query(key) == pytest.approx(original.query(key))

    def test_counters_and_history_preserved(self, tmp_path):
        original = build_warm_filter()
        path = tmp_path / "filter.npz"
        save_filter(original, path)
        restored = load_filter(path)
        assert restored.items_processed == original.items_processed
        assert restored.report_count == original.report_count
        assert restored.reported_keys == original.reported_keys
        assert restored.swaps == original.swaps
        assert restored.nbytes == original.nbytes

    def test_stream_continues_equivalently(self, tmp_path):
        """Checkpoint mid-stream, continue on both copies, compare."""
        original = build_warm_filter(counter_kind="float")
        path = tmp_path / "filter.npz"
        save_filter(original, path)
        restored = load_filter(path)
        rng_a, rng_b = random.Random(7), random.Random(7)
        for _ in range(3_000):
            key = rng_a.randrange(300)
            value = 500.0 if key < 10 else rng_a.uniform(0, 150)
            original.insert(key, value)
            key = rng_b.randrange(300)
            value = 500.0 if key < 10 else rng_b.uniform(0, 150)
            restored.insert(key, value)
        assert restored.reported_keys == original.reported_keys
        for key in range(50):
            assert restored.query(key) == pytest.approx(original.query(key))

    def test_per_key_criteria_survive(self, tmp_path):
        original = build_warm_filter()
        strict = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        original.set_key_criteria(42, strict)
        path = tmp_path / "filter.npz"
        save_filter(original, path)
        restored = load_filter(path)
        assert restored._key_criteria[42] == strict

    def test_string_keys_supported(self, tmp_path):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = QuantileFilter(crit, memory_bytes=8_192, seed=1)
        qf.insert("service-a", 99.0)
        path = tmp_path / "filter.npz"
        save_filter(qf, path)
        assert load_filter(path).reported_keys == {"service-a"}

    def test_cmm_backend_round_trip(self, tmp_path):
        original = build_warm_filter(vague_backend="cmm")
        path = tmp_path / "filter.npz"
        save_filter(original, path)
        restored = load_filter(path)
        for key in range(100):
            assert restored.query(key) == pytest.approx(original.query(key))


class TestRestoreContinuesExactly:
    """A restore mid-stream must not change what the filter does next.

    The default ``counter_kind="int32"`` rounds every fractional vague
    increment with an RNG (at delta = 0.7 each weight is 2.33), and the
    ``probabilistic`` strategy draws its swaps from another; both are
    part of the state a checkpoint carries.
    """

    @staticmethod
    def stream():
        rng = np.random.default_rng(2024)
        keys = rng.zipf(1.3, size=60_000) % 5_000
        values = rng.lognormal(mean=3.0, sigma=1.0, size=60_000)
        threshold = float(np.percentile(values, 80))
        return keys.tolist(), values.tolist(), threshold

    @staticmethod
    def json_round_trip(qf):
        payload = json.loads(json.dumps(state_to_jsonable(engine_state(qf))))
        return restore_engine(state_from_jsonable(payload))

    @pytest.mark.parametrize("strategy", ["comparative", "probabilistic"])
    def test_restored_run_matches_uninterrupted(self, strategy):
        keys, values, threshold = self.stream()
        crit = Criteria(delta=0.7, threshold=threshold, epsilon=5.0)

        def build():
            return QuantileFilter(crit, memory_bytes=2_048,
                                  strategy=strategy, seed=5)

        whole = build()
        whole.insert_many(keys, values)
        first = build()
        first.insert_many(keys[:30_000], values[:30_000])
        resumed = self.json_round_trip(first)
        resumed.insert_many(keys[30_000:], values[30_000:])
        assert resumed.reported_keys == whole.reported_keys
        assert state_fingerprint(resumed) == state_fingerprint(whole)

    def test_capture_without_rng_states_still_loads(self):
        keys, values, threshold = self.stream()
        qf = QuantileFilter(Criteria(delta=0.7, threshold=threshold,
                                     epsilon=5.0),
                            memory_bytes=2_048, strategy="probabilistic")
        qf.insert_many(keys[:5_000], values[:5_000])
        state = engine_state(qf)
        del state["meta"]["rounding_rng"], state["meta"]["strategy_rng"]
        restored = restore_engine(state)
        assert restored.reported_keys == qf.reported_keys
        assert np.array_equal(restored.vague.sketch.counters.data,
                              qf.vague.sketch.counters.data)


class TestFailureModes:
    def test_tuple_keys_rejected_with_history(self, tmp_path):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = QuantileFilter(crit, memory_bytes=8_192)
        qf.insert((1, 2, 3), 99.0)
        with pytest.raises(TraceFormatError, match="include_history"):
            save_filter(qf, tmp_path / "filter.npz")

    def test_tuple_keys_ok_without_history(self, tmp_path):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = QuantileFilter(crit, memory_bytes=8_192)
        qf.insert((1, 2, 3), 99.0)
        path = tmp_path / "filter.npz"
        save_filter(qf, path, include_history=False)
        restored = load_filter(path)
        assert restored.reported_keys == set()
        assert restored.query((1, 2, 3)) == pytest.approx(0.0)  # reset fired

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_filter(tmp_path / "nope.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(TraceFormatError):
            load_filter(path)
