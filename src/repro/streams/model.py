"""The stream model: a finite trace of ``<key, value>`` items.

Definition 1's stream is represented as two parallel numpy arrays (int64
keys, float64 values) — compact enough for multi-million-item traces and
directly consumable by the batch engine, while :meth:`Trace.items`
yields plain Python pairs for the scalar detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.common.validation import require_integer_keys, require_item_arrays


@dataclass
class Trace:
    """A finite key-value stream plus its provenance metadata."""

    keys: np.ndarray
    values: np.ndarray
    name: str = "trace"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.keys = require_integer_keys(self.keys)
        self.values = np.asarray(self.values, dtype=np.float64)
        require_item_arrays(self.keys, self.values)

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def items(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(key, value)`` pairs as plain Python scalars."""
        for key, value in zip(self.keys.tolist(), self.values.tolist()):
            yield key, value

    def iter_chunks(
        self, chunk_items: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(keys, values)`` ndarray pairs of ``chunk_items`` items.

        Chunks are zero-copy views into the trace arrays (the final
        chunk may be shorter), so batch consumers — the vectorised
        engine, the parallel pipeline feed — never materialise per-item
        tuples.  Callers that mutate or retain chunks across trace
        mutations should copy.
        """
        if chunk_items < 1:
            raise ParameterError(
                f"chunk_items must be >= 1, got {chunk_items}"
            )
        for start in range(0, len(self), chunk_items):
            yield (
                self.keys[start:start + chunk_items],
                self.values[start:start + chunk_items],
            )

    @property
    def distinct_keys(self) -> int:
        """Number of distinct keys in the trace."""
        return int(np.unique(self.keys).size)

    def anomaly_fraction(self, threshold: float) -> float:
        """Fraction of items whose value exceeds ``threshold``."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.values > threshold))

    def head(self, n: int) -> "Trace":
        """A prefix sub-trace of the first ``n`` items."""
        if n < 0:
            raise ParameterError(f"prefix length must be >= 0, got {n}")
        return Trace(
            keys=self.keys[:n].copy(),
            values=self.values[:n].copy(),
            name=f"{self.name}[:{n}]",
            metadata=dict(self.metadata),
        )

    def key_frequency(self) -> Dict[int, int]:
        """Frequency of every distinct key (for workload diagnostics)."""
        unique, counts = np.unique(self.keys, return_counts=True)
        return dict(zip(unique.tolist(), counts.tolist()))


def threshold_for_fraction(values: np.ndarray, fraction: float) -> float:
    """Threshold T putting ~``fraction`` of ``values`` above it.

    The paper adjusts T per dataset "to ensure the proportion of
    abnormal items is around 5 %"; this helper does that calibration.
    """
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("cannot calibrate a threshold on an empty value array")
    return float(np.quantile(values, 1.0 - fraction))
