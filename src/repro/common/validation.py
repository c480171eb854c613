"""Small parameter-validation helpers shared across modules.

Keeping the checks in one place gives uniform error messages and keeps
constructor bodies readable.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ParameterError


def require_positive_int(name: str, value) -> int:
    """Validate that ``value`` is an integer >= 1 and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}")
    return value


def require_non_negative(name: str, value) -> float:
    """Validate that ``value`` is a number >= 0 and return it as float."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def require_in_open_unit_interval(name: str, value) -> float:
    """Validate that ``value`` lies strictly inside (0, 1)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must be in (0, 1), got {value}")
    return value


def require_probability(name: str, value) -> float:
    """Validate that ``value`` lies in [0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {value!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value}")
    return value


def require_item_arrays(keys, values) -> None:
    """Raise unless ``keys`` and ``values`` are equal-length 1-D arrays
    and no value is NaN.

    A NaN is neither above nor at-or-below ``T``, so it has no Qweight;
    ±inf are ordinary values.  The arrays are neither copied nor
    converted, so every caller keeps the dtypes it passed.
    """
    if keys.ndim != 1 or keys.shape != values.shape:
        raise ParameterError(
            "keys and values must be equal-length 1-D arrays, got "
            f"{keys.shape} and {values.shape}"
        )
    if values.dtype.kind in "fc" and np.isnan(values).any():
        raise ParameterError("values must not be NaN")
