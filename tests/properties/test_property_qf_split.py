"""Property tests: the compiled ``qf_hash`` hashes like numpy.

``BatchQuantileFilter._hash`` hashes a chunk of integer keys with one C
call when the kernel loads.  It must return, bit for bit, what
``_chunk_parts`` computes: the fingerprints, buckets and weights in
stream order.  Hypothesis picks the key dtype (int64 with its extremes,
int32, uint64 above 2^63), the fingerprint width (1, 16 and 64 bits),
one bucket or more, float32 or float64 values and empty chunks.

Keys of other dtypes keep the ``canonical_keys`` route on both paths:
strings canonicalise as the scalar filter's ``canonical_key`` does, and
float keys raise ``ParameterError``.  Those tests run on hosts without
a compiler too; the compiled side is skipped there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParameterError
from repro.common.hashing import FingerprintHasher, canonical_key, mix64
from repro.core import vectorized
from repro.core.criteria import Criteria
from repro.core.vectorized import BatchQuantileFilter

KERNEL = vectorized._qf_kernel()
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason="the C kernel does not load on this host"
)
#: The paths every dtype test runs: numpy, and the kernel where it loads.
KERNELS = [None] if KERNEL is None else [None, KERNEL]

CRIT = Criteria(delta=0.9, threshold=50.0, epsilon=3.0)
VALUES = [0.0, 49.0, 50.0, 50.000001, 300.0, float("inf"), float("-inf")]


@st.composite
def chunks(draw):
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint64]))
    info = np.iinfo(dtype)
    edges = [info.min, info.max, 0, 1]
    if dtype is np.int64:
        edges.append(-1)
    if dtype is np.uint64:
        edges.append(2 ** 63)
    n = draw(st.integers(min_value=0, max_value=200))
    key = st.one_of(st.sampled_from(edges),
                    st.integers(min_value=int(info.min),
                                max_value=int(info.max)))
    keys = draw(st.lists(key, min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    value_dtype = draw(st.sampled_from([np.float64, np.float32]))
    return np.array(keys, dtype=dtype), np.array(values, dtype=value_dtype)


def assert_identical(got, expected):
    for got_array, expected_array in zip(got, expected, strict=True):
        assert got_array.dtype == expected_array.dtype
        assert got_array.tobytes() == expected_array.tobytes()


@needs_kernel
@given(chunk=chunks(),
       fp_bits=st.sampled_from([1, 16, 64]),
       num_buckets=st.sampled_from([1, 2, 3, 7, 1_000]),
       seed=st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=200, deadline=None)
def test_hash_is_chunk_parts(chunk, fp_bits, num_buckets, seed):
    keys, values = chunk
    filt = BatchQuantileFilter(CRIT, num_buckets=num_buckets, vague_width=4,
                               fp_bits=fp_bits, seed=seed)
    assert_identical(filt._hash(keys, values, KERNEL),
                     filt._chunk_parts(keys, values))


@pytest.mark.parametrize("kernel", KERNELS)
def test_string_keys_canonicalise_as_the_scalar_filter_does(kernel):
    keys = np.array(["a", "bb", "a", "ccc", "", "bb"])
    values = np.array([60.0, 10.0, 70.0, 50.0, 51.0, 49.0])
    filt = BatchQuantileFilter(CRIT, num_buckets=5, vague_width=4, seed=3)
    fps, buckets, _ = filt._hash(keys, values, kernel)
    hasher = FingerprintHasher(bits=16, seed=3 + 7)
    canon = [canonical_key(key) for key in keys.tolist()]
    assert fps.tolist() == [hasher.fingerprint(c) for c in canon]
    bucket_seed = mix64(3 ^ 0x1234_5678_9ABC_DEF0)
    assert buckets.tolist() == [mix64(c ^ bucket_seed) % 5 for c in canon]
    assert_identical(filt._hash(keys, values, kernel),
                     filt._chunk_parts(keys, values))


@pytest.mark.parametrize("kernel", KERNELS)
def test_float_keys_raise(kernel):
    filt = BatchQuantileFilter(CRIT, num_buckets=5, vague_width=4)
    with pytest.raises(ParameterError):
        filt._hash(np.array([1.5, 2.0]), np.zeros(2), kernel)
