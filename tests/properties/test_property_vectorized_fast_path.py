"""Property: the vectorised fast tier is bit-exact vs the scalar filter.

``BatchQuantileFilter`` splits every chunk into a vectorised
candidate-hit tier and an exact scalar tier; this test lets hypothesis
hunt for a stream where the split changes *anything*.  The scenarios
deliberately stress the tier boundary:

* tiny bucket counts force bucket collisions (shared slots, first-miss
  prefixes),
* hot keys with many above-threshold items force report crossings
  inside the fast tier (the risky-slot replay path),
* random chunk sizes move the classification boundary around.

Beyond report equivalence, the final state (candidate fingerprints,
float Qweights and vague counters) must match the scalar
``QuantileFilter(counter_kind="float")`` **bit for bit** — the fast
tier commits through ordered ``np.add.at`` precisely so that float
accumulation order is preserved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter


@st.composite
def fast_path_scenarios(draw):
    num_buckets = draw(st.sampled_from([1, 2, 3, 8, 64]))
    bucket_size = draw(st.integers(min_value=1, max_value=6))
    vague_width = draw(st.sampled_from([1, 16, 256]))
    depth = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=500))
    chunk = draw(st.sampled_from([1, 3, 32, 512, 10_000]))
    criteria = Criteria(
        delta=draw(st.sampled_from([0.5, 0.9, 0.95])),
        threshold=100.0,
        # Small epsilon -> frequent threshold crossings in the fast
        # tier; large -> long pure accumulation runs.
        epsilon=draw(st.sampled_from([0.0, 1.0, 5.0, 50.0])),
    )
    n = draw(st.integers(min_value=1, max_value=600))
    num_keys = draw(st.sampled_from([1, 2, 5, 40]))
    hot_fraction = draw(st.sampled_from([0.05, 0.3, 0.8]))
    stream_seed = draw(st.integers(min_value=0, max_value=1_000))
    return (num_buckets, bucket_size, vague_width, depth, seed, chunk,
            criteria, n, num_keys, hot_fraction, stream_seed)


def _build_stream(n, num_keys, hot_fraction, threshold, stream_seed):
    rng = np.random.default_rng(stream_seed)
    keys = rng.integers(0, num_keys, size=n).astype(np.int64)
    values = np.where(
        rng.random(n) < hot_fraction,
        threshold * rng.uniform(1.01, 4.0, n),
        rng.uniform(0.0, threshold, n),
    )
    return keys, values


@given(scenario=fast_path_scenarios())
@settings(max_examples=120, deadline=None)
def test_fast_tier_bit_exact_vs_scalar(scenario):
    (num_buckets, bucket_size, vague_width, depth, seed, chunk,
     criteria, n, num_keys, hot_fraction, stream_seed) = scenario
    keys, values = _build_stream(
        n, num_keys, hot_fraction, criteria.threshold, stream_seed
    )
    dims = dict(
        num_buckets=num_buckets, bucket_size=bucket_size,
        vague_width=vague_width, depth=depth, seed=seed,
    )

    batch = BatchQuantileFilter(criteria, chunk_size=chunk, **dims)
    batch.process(keys, values)

    scalar = QuantileFilter(criteria, counter_kind="float", **dims)
    for key, value in zip(keys.tolist(), values.tolist()):
        scalar.insert(key, value)

    assert batch.reported_keys == scalar.reported_keys
    assert batch.report_count == scalar.report_count
    assert batch.candidate_reports == scalar.candidate_reports
    assert batch.vague_reports == scalar.vague_reports

    # The float state must be IDENTICAL, not merely close: the fast
    # tier preserves the scalar filter's left-to-right addition order.
    assert np.array_equal(batch._cand_fps, scalar.candidate._fps)
    assert np.array_equal(batch._cand_qws, scalar.candidate._qws)
    assert np.array_equal(
        np.array(batch._rows), scalar.vague.sketch.counters.data
    )
