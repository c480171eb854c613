"""Property tests: the compiled Algorithm 2 loop is the numpy path, bit for bit.

Two filters of one geometry and seed take the same chunks, one through
the compiled kernel and one through the numpy two-tier path.  After
every chunk their candidate planes and vague rows (compared as raw
bytes, so signed zeros count), report sets and all five tallies must
be equal.  Hypothesis picks the geometry (one bucket, width one,
depth 1–4), the criteria (fractional weights, ``epsilon = 0``), the
chunk cuts (down to one item) and retargets between chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorized
from repro.core.criteria import Criteria
from repro.core.vectorized import BatchQuantileFilter

pytestmark = pytest.mark.skipif(
    not vectorized.qf_kernel_loaded(),
    reason="the C kernel does not load on this host",
)

VALUES = [0.0, 49.0, 50.0, 50.000001, 300.0, 5e3, float("inf"),
          float("-inf"), -7.0]


@st.composite
def geometries(draw):
    return dict(
        num_buckets=draw(st.sampled_from([1, 1, 2, 3, 7])),
        bucket_size=draw(st.integers(min_value=1, max_value=4)),
        vague_width=draw(st.sampled_from([1, 1, 2, 5, 16])),
        depth=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=200)),
    )


@st.composite
def criteria(draw):
    return Criteria(
        # 0.5 gives ±1 weights (exact zeros, signed-zero ties); 0.7 and
        # 0.9 give fractional ones.
        delta=draw(st.sampled_from([0.5, 0.7, 0.9])),
        threshold=50.0,
        epsilon=draw(st.sampled_from([0.0, 1.0, 3.0])),
    )


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    keys = draw(st.lists(st.integers(min_value=0, max_value=30),
                         min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    return (np.array(keys, dtype=np.int64),
            np.array(values, dtype=np.float64))


def state(filt):
    return (
        filt._cand_fps.tobytes(), filt._cand_qws.tobytes(),
        filt._rows.tobytes(), sorted(filt.reported_keys),
        filt.report_count, filt.candidate_reports, filt.vague_reports,
        filt.candidate_hits, filt.vague_inserts, filt.swaps,
        filt.items_processed,
    )


def twins(geometry, crit):
    pair = []
    for _ in range(2):
        filt = BatchQuantileFilter(crit, **geometry)
        filt.stats_tallies = True
        pair.append(filt)
    return pair


@given(geometry=geometries(), crit=criteria(), stream=streams(),
       cuts=st.lists(st.integers(min_value=1, max_value=64), max_size=12),
       retargets=st.lists(st.sampled_from([None, 20.0, 80.0, 300.0]),
                          max_size=12))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_numpy_path_after_every_chunk(
    geometry, crit, stream, cuts, retargets
):
    keys, values = stream
    kernel = vectorized._qf_kernel()
    compiled, numpy_path = twins(geometry, crit)
    start = 0
    for index, size in enumerate(cuts + [len(keys)]):
        stop = min(start + size, len(keys))
        compiled._run_chunk(keys[start:stop], values[start:stop], kernel)
        numpy_path._run_chunk(keys[start:stop], values[start:stop], None)
        assert state(compiled) == state(numpy_path)
        if index < len(retargets) and retargets[index] is not None:
            compiled.retarget(retargets[index])
            numpy_path.retarget(retargets[index])
        start = stop
        if start == len(keys):
            break
