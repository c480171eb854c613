"""Tests for repro.core.shape — one budget rule and one shape copy."""

import pytest

from repro.common.errors import ParameterError
from repro.common.memory import sizeof_counter
from repro.core.candidate import CandidatePart
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.shape import resolve_shape, shape_of, slot_bytes
from repro.core.vague import VaguePart
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.concurrent import ConcurrentQuantileFilter
from repro.parallel.pipeline import (
    PIPELINE_ENGINES,
    ParallelPipeline,
    _build_worker_filter,
)
from repro.parallel.sharded import ENGINES, ShardedQuantileFilter

CRITERIA = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
COUNTER_KINDS = ("int8", "int16", "int32", "int64", "float")

#: ``(num_buckets, width, nbytes)`` of one filter per budget and vague
#: counter size in bytes, as every entry point resolved them before
#: the rule moved into repro.core.shape.  The batch and threads engines
#: charge 4 B per counter whatever they store, so at one budget their
#: vague part is twice as wide as the scalar ``counter_kind="float"``
#: filter's.
RESOLVED = {
    32768: {1: (728, 2184, 32760), 2: (728, 1092, 32760),
            4: (728, 546, 32760), 8: (728, 273, 32760)},
    65536: {1: (1456, 4369, 65523), 2: (1456, 2184, 65520),
            4: (1456, 1092, 65520), 8: (1456, 546, 65520)},
    131072: {1: (2912, 8738, 131046), 2: (2912, 4369, 131046),
             4: (2912, 2184, 131040), 8: (2912, 1092, 131040)},
    262144: {1: (5825, 17476, 262128), 2: (5825, 8738, 262128),
             4: (5825, 4369, 262128), 8: (5825, 2184, 262116)},
}
BUDGETS = sorted(RESOLVED)
BATCH_COUNTER = 4
FLOAT_COUNTER = sizeof_counter("float")


def resolved(filt) -> tuple:
    return filt.num_buckets, filt.width, filt.nbytes


class TestResolveShape:
    def test_candidate_share_fits_budget(self):
        # 7 500 B at the 4:1 split leave the candidate part 6 000 B.
        num_buckets, _ = resolve_shape(
            7_500, counter_bytes=4, bucket_size=6, fp_bits=16
        )
        part = CandidatePart(num_buckets, bucket_size=6, fp_bits=16)
        assert part.nbytes <= 6_000
        assert part.num_buckets >= 1

    def test_candidate_tiny_budget(self):
        # 5 B leave the candidate part 4 B, less than one slot.
        num_buckets, _ = resolve_shape(
            5, counter_bytes=4, bucket_size=6, fp_bits=16
        )
        assert num_buckets == 1

    def test_vague_share_respects_budget(self):
        # 60 000 B at the 4:1 split leave the vague part 12 000 B.
        _, width = resolve_shape(
            60_000, counter_bytes=sizeof_counter("int32"), depth=3
        )
        part = VaguePart(depth=3, width=width, counter_kind="int32")
        assert part.nbytes <= 12_000
        assert part.width == 1_000

    def test_counter_kind_scales_width(self):
        _, int16 = resolve_shape(
            60_000, counter_bytes=sizeof_counter("int16"), depth=3
        )
        _, int32 = resolve_shape(
            60_000, counter_bytes=sizeof_counter("int32"), depth=3
        )
        assert int16 == 2 * int32

    def test_vague_tiny_budget(self):
        # 2 B leave the vague part 1 B, less than one counter per row.
        _, width = resolve_shape(2, counter_bytes=4, depth=3)
        assert width == 1

    def test_explicit_shape_passes_through(self):
        assert resolve_shape(None, 8, 64, counter_bytes=4) == (8, 64)

    @pytest.mark.parametrize("dims", [(None, None), (8, None), (None, 64)])
    def test_needs_a_budget_or_both_dimensions(self, dims):
        with pytest.raises(ParameterError, match="memory_bytes"):
            resolve_shape(None, *dims, counter_bytes=4)

    def test_slot_is_fingerprint_plus_counter(self):
        assert slot_bytes(16) == 6
        assert slot_bytes(9) == 6
        assert slot_bytes(8) == 5


class TestEveryEntryPointResolvesTheSameShape:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("kind", COUNTER_KINDS)
    def test_scalar_filter(self, budget, kind):
        filt = QuantileFilter(CRITERIA, budget, counter_kind=kind)
        assert resolved(filt) == RESOLVED[budget][sizeof_counter(kind)]

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize(
        "engine", [BatchQuantileFilter, ConcurrentQuantileFilter]
    )
    def test_batch_and_threads_filters(self, budget, engine):
        filt = engine(CRITERIA, budget)
        assert resolved(filt) == RESOLVED[budget][BATCH_COUNTER]

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("kind", COUNTER_KINDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sharded_filter(self, budget, kind, engine):
        sharded = ShardedQuantileFilter(
            CRITERIA, 3, engine=engine, memory_bytes=budget,
            counter_kind=kind,
        )
        expected = RESOLVED[budget][
            sizeof_counter(kind) if engine == "scalar" else BATCH_COUNTER
        ]
        assert [resolved(shard) for shard in sharded.shards] == [expected] * 3
        assert sharded.router.num_buckets == expected[0]

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("engine", PIPELINE_ENGINES)
    def test_pipeline_shard(self, budget, engine):
        pipe = ParallelPipeline(CRITERIA, 2, engine=engine,
                                memory_bytes=budget)
        shard = (
            pipe.filter if engine == "threads"
            else _build_worker_filter(pipe._config)
        )
        expected = RESOLVED[budget][
            FLOAT_COUNTER if engine == "scalar" else BATCH_COUNTER
        ]
        assert resolved(shard) == expected
        assert pipe.router.num_buckets == expected[0]


class TestShapeOf:
    @pytest.mark.parametrize("make", [
        lambda: QuantileFilter(
            CRITERIA, num_buckets=9, vague_width=33, bucket_size=4,
            depth=5, fp_bits=12, counter_kind="int16",
            vague_backend="cms", strategy="probabilistic", seed=5,
        ),
        lambda: BatchQuantileFilter(
            CRITERIA, 20_000, bucket_size=4, depth=5, fp_bits=12,
            strategy="forceful", seed=3,
        ),
        lambda: ConcurrentQuantileFilter(CRITERIA, 20_000, seed=8),
    ], ids=["scalar", "batch", "threads"])
    def test_builds_a_filter_of_the_same_shape(self, make):
        filt = make()
        copy = type(filt)(filt.criteria, **shape_of(filt))
        assert shape_of(copy) == shape_of(filt)
        assert resolved(copy) == resolved(filt)

    def test_scalar_shape_names_its_counters_and_backend(self):
        filt = QuantileFilter(CRITERIA, 4096, counter_kind="float",
                              vague_backend="cmm", seed=2)
        shape = shape_of(filt)
        assert shape["counter_kind"] == "float"
        assert shape["vague_backend"] == "cmm"
        assert shape["seed"] == 2
        assert "counter_kind" not in shape_of(BatchQuantileFilter(CRITERIA, 4096))
