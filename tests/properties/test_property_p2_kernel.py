"""Property tests: P² ``update_many`` is ``update``, bit for bit.

``update_many`` runs one compiled C loop over the five markers when the
kernel loads, and the Python ``update`` loop otherwise.  Either way,
any split of any float64 sequence into ragged ``update_many`` calls
must leave the marker heights and positions (compared by
``float.hex``), ``count`` and ``quantile()`` exactly where one
``update`` per value leaves them.  The sequences include ties drawn
from a small pool, ±inf, subnormals, ±1e300, NaN and the 0–5 values
the markers need before they initialise.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detection import threshold
from repro.detection.threshold import P2QuantileEstimator

EXTREMES = [0.0, -0.0, 1.0, 2.0, 1e300, -1e300, 5e-324, -5e-324,
            2.2250738585072014e-308, float("inf"), float("-inf")]

values_st = st.one_of(
    # Draws from a small pool tie the marker heights over and over.
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), max_size=300),
    st.lists(st.one_of(st.floats(width=64), st.sampled_from(EXTREMES)),
             max_size=300),
)
quantile_st = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                        exclude_max=True)


def bits(estimator):
    return ([value.hex() for value in estimator._heights],
            [value.hex() for value in estimator._positions],
            estimator.count,
            estimator.quantile().hex())


def assert_ragged_calls_match(q, values, cuts):
    reference = P2QuantileEstimator(q)
    batched = P2QuantileEstimator(q)
    array = np.asarray(values, dtype=np.float64)
    bounds = sorted({min(cut, len(values)) for cut in cuts} | {len(values)})
    start = 0
    for end in bounds:
        for value in values[start:end]:
            reference.update(value)
        batched.update_many(array[start:end])
        assert bits(batched) == bits(reference)
        start = end


@pytest.mark.parametrize("path", ["compiled", "python"])
@given(q=quantile_st, values=values_st,
       cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=8))
def test_update_many_matches_update_loop(path, q, values, cuts):
    if path == "python":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(threshold, "_p2_kernel", lambda: None)
            assert_ragged_calls_match(q, values, cuts)
    elif threshold.p2_kernel_loaded():
        assert_ragged_calls_match(q, values, cuts)
    else:
        pytest.skip("the C kernel does not load on this host")
