"""Tests for repro.common.validation."""

import numpy as np
import pytest

from repro.common.errors import ParameterError, ReproError
from repro.common.validation import (
    require_in_open_unit_interval,
    require_non_negative,
    require_positive_int,
    require_probability,
)
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.shadow import ShadowAccuracyEstimator
from repro.parallel.concurrent import ConcurrentQuantileFilter
from repro.parallel.pipeline import ParallelPipeline
from repro.parallel.sharded import ShardedQuantileFilter
from repro.streams.model import Trace

CRIT = Criteria(delta=0.95, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=64, vague_width=64)

#: Every public entry point that takes a whole ``(keys, values)`` array
#: pair, called on one such pair.
ARRAY_ENTRY_POINTS = {
    "Trace": lambda k, v: Trace(k, v),
    "BatchQuantileFilter.process":
        lambda k, v: BatchQuantileFilter(CRIT, **GEOMETRY).process(k, v),
    "ShardedQuantileFilter.process": lambda k, v: ShardedQuantileFilter(
        CRIT, 2, engine="batch", **GEOMETRY).process(k, v),
    "ConcurrentQuantileFilter.process":
        lambda k, v: ConcurrentQuantileFilter(CRIT, **GEOMETRY).process(k, v),
    "ParallelPipeline.run[batch]": lambda k, v: ParallelPipeline(
        CRIT, 2, engine="batch", **GEOMETRY).run(k, v),
    "ParallelPipeline.run[threads]": lambda k, v: ParallelPipeline(
        CRIT, 2, engine="threads", **GEOMETRY).run(k, v),
    "ShadowAccuracyEstimator.observe_batch":
        lambda k, v: ShadowAccuracyEstimator(CRIT).observe_batch(k, v),
}


@pytest.mark.parametrize("entry_point", sorted(ARRAY_ENTRY_POINTS))
def test_array_entry_points_reject_2d_items(entry_point):
    keys = np.arange(20, dtype=np.int64).reshape(4, 5)
    values = np.full((4, 5), 500.0)
    with pytest.raises(ParameterError, match="1-D"):
        ARRAY_ENTRY_POINTS[entry_point](keys, values)


@pytest.mark.parametrize("entry_point", sorted(ARRAY_ENTRY_POINTS))
def test_array_entry_points_reject_nan_values(entry_point):
    keys = np.arange(20, dtype=np.int64)
    values = np.full(20, 500.0)
    values[7] = np.nan
    with pytest.raises(ParameterError, match="NaN"):
        ARRAY_ENTRY_POINTS[entry_point](keys, values)


@pytest.mark.parametrize("entry_point", sorted(ARRAY_ENTRY_POINTS))
def test_array_entry_points_accept_infinite_values(entry_point):
    keys = np.arange(20, dtype=np.int64)
    values = np.where(keys % 2 == 0, np.inf, -np.inf)
    ARRAY_ENTRY_POINTS[entry_point](keys, values)


class TestScalarInsertRejectsNan:
    """A NaN reading is neither above nor at-or-below T, so it has no
    Qweight (it used to weigh -1, silently scored as "<= T")."""

    def test_insert(self):
        qf = QuantileFilter(CRIT, **GEOMETRY)
        with pytest.raises(ParameterError, match="NaN"):
            qf.insert(3, float("nan"))
        assert qf.query(3) == 0.0
        assert qf.items_processed == 0

    def test_insert_many_rejects_before_inserting(self):
        qf = QuantileFilter(CRIT, **GEOMETRY)
        with pytest.raises(ParameterError, match="NaN"):
            qf.insert_many([1, 2, 3], [500.0, float("nan"), 500.0])
        assert qf.items_processed == 0


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int("n", 3) == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ParameterError):
            require_positive_int("n", 0)
        with pytest.raises(ParameterError):
            require_positive_int("n", -1)

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            require_positive_int("n", True)

    def test_rejects_float(self):
        with pytest.raises(ParameterError):
            require_positive_int("n", 3.0)

    def test_error_names_parameter(self):
        with pytest.raises(ParameterError, match="width"):
            require_positive_int("width", -1)


class TestRequireNonNegative:
    def test_accepts_zero_and_positive(self):
        assert require_non_negative("x", 0) == 0.0
        assert require_non_negative("x", 2.5) == 2.5

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            require_non_negative("x", -0.1)

    def test_rejects_non_numeric(self):
        with pytest.raises(ParameterError):
            require_non_negative("x", "many")


class TestOpenUnitInterval:
    def test_accepts_interior(self):
        assert require_in_open_unit_interval("delta", 0.95) == 0.95

    def test_rejects_bounds(self):
        with pytest.raises(ParameterError):
            require_in_open_unit_interval("delta", 0.0)
        with pytest.raises(ParameterError):
            require_in_open_unit_interval("delta", 1.0)


class TestRequireProbability:
    def test_accepts_bounds(self):
        assert require_probability("p", 0.0) == 0.0
        assert require_probability("p", 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ParameterError):
            require_probability("p", 1.1)
        with pytest.raises(ParameterError):
            require_probability("p", -0.1)


class TestErrorHierarchy:
    def test_parameter_error_is_repro_and_value_error(self):
        assert issubclass(ParameterError, ReproError)
        assert issubclass(ParameterError, ValueError)

    def test_catchable_as_family(self):
        try:
            require_positive_int("n", 0)
        except ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("ParameterError should be caught as ReproError")
