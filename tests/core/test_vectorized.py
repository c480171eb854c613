"""Tests for repro.core.vectorized — batch/scalar equivalence."""

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.sharded import ShardedQuantileFilter


def make_stream(seed: int, n: int = 20_000, n_keys: int = 500, n_hot: int = 20):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, size=n)
    values = np.where(keys < n_hot, 500.0, rng.uniform(0, 150, size=n))
    return keys.astype(np.int64), values


class TestEquivalenceWithScalar:
    """The batch engine must report exactly what the scalar filter
    (float counters, same seed) reports — item-for-item semantics."""

    @pytest.mark.parametrize("dims", [(8, 32), (64, 256), (512, 2_048)])
    def test_reported_sets_identical(self, dims):
        num_buckets, vague_width = dims
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=1)
        scalar = QuantileFilter(
            crit, num_buckets=num_buckets, vague_width=vague_width,
            counter_kind="float", seed=9,
        )
        for key, value in zip(keys.tolist(), values.tolist()):
            scalar.insert(key, value)
        batch = BatchQuantileFilter(
            crit, num_buckets=num_buckets, vague_width=vague_width, seed=9
        )
        batch.process(keys, values)
        assert batch.reported_keys == scalar.reported_keys

    def test_report_counts_identical(self):
        crit = Criteria(delta=0.9, threshold=200.0, epsilon=3.0)
        keys, values = make_stream(seed=2, n=8_000)
        scalar = QuantileFilter(
            crit, num_buckets=32, vague_width=128,
            counter_kind="float", seed=4,
        )
        for key, value in zip(keys.tolist(), values.tolist()):
            scalar.insert(key, value)
        batch = BatchQuantileFilter(
            crit, num_buckets=32, vague_width=128, seed=4
        )
        batch.process(keys, values)
        assert batch.report_count == scalar.report_count

    def test_chunk_size_does_not_change_results(self):
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=3, n=5_000)
        outcomes = []
        for chunk_size in (64, 1_000, 100_000):
            batch = BatchQuantileFilter(
                crit, memory_bytes=16_384, seed=5, chunk_size=chunk_size
            )
            batch.process(keys, values)
            outcomes.append((frozenset(batch.reported_keys), batch.report_count))
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestBehaviour:
    def test_finds_hot_keys(self):
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=6)
        batch = BatchQuantileFilter(crit, memory_bytes=64 * 1024, seed=1)
        reported = batch.process(keys, values)
        assert set(range(20)) <= reported

    def test_incremental_processing(self):
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=7, n=4_000)
        whole = BatchQuantileFilter(crit, memory_bytes=16_384, seed=2)
        whole.process(keys, values)
        parts = BatchQuantileFilter(crit, memory_bytes=16_384, seed=2)
        parts.process(keys[:2_000], values[:2_000])
        parts.process(keys[2_000:], values[2_000:])
        assert parts.reported_keys == whole.reported_keys

    def test_reported_keys_is_the_live_set(self):
        # Callers may hold the set across process calls and see later
        # reports land in it; the threads engine's copy is its own.
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=7, n=4_000)
        batch = BatchQuantileFilter(crit, memory_bytes=16_384, seed=2)
        held = batch.reported_keys
        assert batch.process(keys, values) is held
        assert held and batch.reported_keys is held

    def test_only_a_cold_filter_ramps(self, monkeypatch):
        # The first call ramps up from 512-item chunks; later calls (one
        # per chunk, as perfbench and the pipeline workers make them)
        # take one full-width chunk per chunk_size items.
        crit = Criteria(delta=0.95, threshold=200.0)
        keys, values = make_stream(seed=10, n=4 * 8_192)
        batch = BatchQuantileFilter(crit, memory_bytes=16_384)
        sizes = []
        run_chunk = batch._run_chunk

        def recording_run_chunk(chunk_keys, chunk_values, kernel):
            sizes.append(chunk_keys.shape[0])
            run_chunk(chunk_keys, chunk_values, kernel)

        monkeypatch.setattr(batch, "_run_chunk", recording_run_chunk)
        batch.process(keys[:8_192], values[:8_192])
        assert sizes == [512, 1_024, 2_048, 4_096, 512]
        sizes.clear()
        for start in range(8_192, keys.shape[0], 8_192):
            batch.process(keys[start:start + 8_192],
                          values[start:start + 8_192])
        assert sizes == [8_192] * 3

    def test_items_processed(self):
        crit = Criteria(delta=0.95, threshold=200.0)
        keys, values = make_stream(seed=8, n=1_234)
        batch = BatchQuantileFilter(crit, memory_bytes=8_192)
        batch.process(keys, values)
        assert batch.items_processed == 1_234

    def test_nbytes_within_budget(self):
        crit = Criteria(delta=0.95, threshold=200.0)
        batch = BatchQuantileFilter(crit, memory_bytes=10_000)
        assert batch.nbytes <= 10_000

    def test_length_mismatch_raises(self):
        crit = Criteria(delta=0.95, threshold=200.0)
        batch = BatchQuantileFilter(crit, memory_bytes=8_192)
        with pytest.raises(ParameterError):
            batch.process(np.zeros(3, dtype=np.int64), np.zeros(4))

    def test_invalid_chunk_size(self):
        crit = Criteria(delta=0.95, threshold=200.0)
        with pytest.raises(ParameterError):
            BatchQuantileFilter(crit, memory_bytes=8_192, chunk_size=0)

    @pytest.mark.parametrize("geometry", [
        dict(num_buckets=0, vague_width=8),
        dict(num_buckets=8, vague_width=0),
        dict(num_buckets=8, vague_width=8, bucket_size=0),
        dict(num_buckets=8, vague_width=8, depth=0),
    ])
    def test_invalid_geometry(self, geometry):
        # The compiled loop indexes the planes by these dimensions.
        crit = Criteria(delta=0.95, threshold=200.0)
        with pytest.raises(ParameterError):
            BatchQuantileFilter(crit, **geometry)

    def test_forceful_strategy_supported(self):
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=5.0)
        keys, values = make_stream(seed=9, n=3_000)
        batch = BatchQuantileFilter(
            crit, memory_bytes=8_192, strategy="forceful", seed=3
        )
        reported = batch.process(keys, values)
        assert reported  # hot keys still found under forceful election


def test_float32_values_are_compared_with_t_in_float64():
    # NumPy compares a float32 array with a Python float in float32,
    # where T = 100.099998 rounds to the same float32 as 100.1.  The
    # scalar filter compares Python floats, so every engine must
    # compare in float64.
    crit = Criteria(delta=0.5, threshold=100.099998, epsilon=3.0)
    keys = np.full(10, 7, dtype=np.int64)
    values = np.full(10, 100.1, dtype=np.float32)
    geometry = dict(num_buckets=8, vague_width=8)
    scalar = QuantileFilter(crit, counter_kind="float", **geometry)
    scalar.insert_many(keys, values)
    batch = BatchQuantileFilter(crit, **geometry)
    sharded = ShardedQuantileFilter(crit, 2, engine="batch", **geometry)
    assert scalar.reported_keys == {7}
    assert batch.process(keys, values) == {7}
    assert sharded.process(keys, values) == {7}
