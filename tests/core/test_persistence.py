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
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.concurrent import ConcurrentQuantileFilter

STRATEGIES = ["comparative", "probabilistic", "forceful"]


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

    @staticmethod
    def build(engine, strategy, threshold):
        crit = Criteria(delta=0.7, threshold=threshold, epsilon=5.0)
        cls = QuantileFilter if engine == "scalar" else BatchQuantileFilter
        return cls(crit, memory_bytes=2_048, strategy=strategy, seed=5)

    @staticmethod
    def feed(filt, keys, values):
        if isinstance(filt, QuantileFilter):
            filt.insert_many(keys, values)
        else:
            filt.process(np.asarray(keys), np.asarray(values))

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_restored_run_matches_uninterrupted(self, strategy, engine):
        keys, values, threshold = self.stream()
        whole = self.build(engine, strategy, threshold)
        self.feed(whole, keys, values)
        first = self.build(engine, strategy, threshold)
        self.feed(first, keys[:30_000], values[:30_000])
        resumed = self.json_round_trip(first)
        assert type(resumed) is type(whole)
        self.feed(resumed, keys[30_000:], values[30_000:])
        assert resumed.reported_keys == whole.reported_keys
        assert state_fingerprint(resumed) == state_fingerprint(whole)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_capture_continues_as_scalar(self, strategy):
        """A batch capture restored as a scalar filter continues with the
        batch filter's reports, counters and arrays."""
        keys, values, threshold = self.stream()
        batch = self.build("batch", strategy, threshold)
        batch.stats_tallies = True
        self.feed(batch, keys[:30_000], values[:30_000])
        payload = json.loads(json.dumps(state_to_jsonable(engine_state(batch))))
        scalar = restore_engine(state_from_jsonable(payload), engine="scalar")
        assert isinstance(scalar, QuantileFilter)
        self.feed(batch, keys[30_000:], values[30_000:])
        self.feed(scalar, keys[30_000:], values[30_000:])
        assert scalar.reported_keys == batch.reported_keys
        for name in ("items_processed", "report_count", "candidate_reports",
                     "vague_reports", "candidate_hits", "vague_inserts",
                     "swaps"):
            assert getattr(scalar, name) == getattr(batch, name), name
        assert np.array_equal(scalar.candidate._fps, batch._cand_fps)
        assert np.array_equal(scalar.candidate._qws, batch._cand_qws)
        assert np.array_equal(scalar.vague.sketch.counters.data, batch._rows)

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


class TestEngines:
    """One format captures every engine; ``engine=`` picks the rebuild."""

    @staticmethod
    def fed_threads():
        crit = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
        cqf = ConcurrentQuantileFilter(crit, memory_bytes=4_096, seed=2,
                                       flush_items=512)
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 400, size=6_000)
        values = np.where(keys < 10, 500.0, rng.uniform(0, 90, 6_000))
        cqf.process(keys, values)
        return cqf

    def test_every_engine_saves_the_same_arrays(self):
        crit = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
        for filt in (QuantileFilter(crit, memory_bytes=4_096),
                     BatchQuantileFilter(crit, memory_bytes=4_096),
                     self.fed_threads()):
            assert set(engine_state(filt)["arrays"]) == {
                "candidate_fps", "candidate_qws", "vague_counters"
            }

    def test_threads_capture_restores_into_batch_filter(self):
        cqf = self.fed_threads()
        twin = restore_engine(engine_state(cqf))
        assert isinstance(twin, BatchQuantileFilter)
        assert twin.reported_keys == cqf.reported_keys
        assert twin.items_processed == cqf.items_processed == 6_000
        assert state_fingerprint(twin) == state_fingerprint(cqf)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(counter_kind="int32"), "counter_kind='int32'"),
        (dict(counter_kind="float", vague_backend="cmm"),
         "vague_backend='cmm'"),
    ])
    def test_batch_restore_refuses_what_it_cannot_run(self, kwargs, match):
        qf = build_warm_filter(**kwargs)
        with pytest.raises(TraceFormatError, match=match):
            restore_engine(engine_state(qf), engine="batch")

    def test_batch_restore_refuses_per_key_criteria(self):
        qf = build_warm_filter(counter_kind="float")
        qf.set_key_criteria(42, Criteria(delta=0.5, threshold=10.0,
                                         epsilon=0.0))
        with pytest.raises(TraceFormatError, match="1 per-key criteria"):
            restore_engine(engine_state(qf), engine="batch")

    def test_unknown_engine_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown engine"):
            restore_engine(engine_state(build_warm_filter()), engine="gpu")


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
