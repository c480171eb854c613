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


def require_integer_keys(keys) -> np.ndarray:
    """``keys`` as an int64 array; raise unless its dtype is integer.

    Casting floats to int64 would truncate them, silently merging keys
    such as 1.5 and 1.9 into key 1, so a non-empty array of any other
    dtype raises :class:`ParameterError`, as the batch engine's hashing
    does for such keys.  uint64 keys keep their bits, which is all the
    hashing reads.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu" and keys.size:
        raise ParameterError(
            f"unsupported key type {keys.dtype.name}; "
            "use an array of integers"
        )
    return keys.astype(np.int64, copy=False)


def require_item_arrays(keys, values) -> None:
    """Raise unless ``keys`` and ``values`` are equal-length 1-D arrays
    and every value is an integer or a float other than NaN.

    A NaN is neither above nor at-or-below ``T``, so it has no Qweight;
    ±inf are ordinary values.  Values of any other dtype, such as an
    object array holding ``None``, would be scored as NaN.  The arrays
    are neither copied nor converted, so every caller keeps the dtypes
    it passed.
    """
    if keys.ndim != 1 or keys.shape != values.shape:
        raise ParameterError(
            "keys and values must be equal-length 1-D arrays, got "
            f"{keys.shape} and {values.shape}"
        )
    if values.dtype.kind not in "iuf":
        raise ParameterError(
            f"unsupported value type {values.dtype.name}; "
            "use an array of numbers"
        )
    if contains_nan(values):
        raise ParameterError("values must not be NaN")


def contains_nan(values: np.ndarray) -> bool:
    """Whether a numeric array holds a NaN.

    ``minimum`` propagates NaN, so one reduction finds any.  Not
    ``values.dot(values)``: OpenBLAS runs a dot over more than 10000
    values on its thread pool, which keeps burning a core afterwards.
    """
    return bool(values.dtype.kind == "f" and values.size
                and np.isnan(np.minimum.reduce(values)))
