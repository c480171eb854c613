"""The engine-equivalence suites again, on the forced numpy two-tier path.

Wherever the compiled Algorithm 2 loop loads, the batch, threads and
sharded engines run it, so the suites imported below check the compiled
path in their own modules.  Collected a second time here, with the
``numpy_qf_path`` fixture on for the whole module, they check the numpy
two-tier path too: the fallback for hosts without a C compiler and the
path of the ``probabilistic`` and ``forceful`` strategies.
"""

import pytest

from repro.core.criteria import Criteria
from repro.core.vectorized import BatchQuantileFilter
from tests.core.test_vectorized import (  # noqa: F401
    test_float32_values_are_compared_with_t_in_float64,
)
from tests.parallel.test_shard_equivalence import (  # noqa: F401
    test_batch_and_scalar_sharding_agree_under_contention,
    test_merged_view_matches_single_without_overflow,
    test_one_shard_is_exactly_the_single_filter_under_contention,
    test_sharded_equals_single_without_overflow,
)
from tests.properties.test_property_batch_equivalence import (  # noqa: F401
    test_batch_equals_scalar_everywhere,
)
from tests.properties.test_property_concurrent_equivalence import (  # noqa: F401
    test_racing_bucket_affine_threads_match_batch_when_no_overflow,
    test_single_ingest_equals_batch_over_flushes,
    test_witness_replay_reproduces_racing_threads_bit_exactly,
)
from tests.properties.test_property_vectorized_fast_path import (  # noqa: F401
    test_fast_tier_bit_exact_vs_scalar,
)

pytestmark = pytest.mark.usefixtures("numpy_qf_path")


def test_this_module_runs_the_numpy_path():
    filt = BatchQuantileFilter(Criteria(delta=0.9, threshold=1.0),
                               num_buckets=4, vague_width=4)
    assert filt._kernel() is None
