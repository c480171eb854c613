"""The vague part: a compact sketch tracking non-candidate Qweights.

A thin façade over :class:`~repro.sketches.count_sketch.CountSketch`
(default) or :class:`~repro.sketches.count_min.CountMinSketch` (the
Fig. 12 "CMS" variant) that

* chooses between the two backends by name, and
* implements the paper's fingerprint-keyed hashing trick: keys entering
  the vague part are addressed by ``mix(fingerprint, bucket_index)``
  rather than the raw key, because after a candidate-part eviction only
  the fingerprint survives (Sec. III-B "Technical Details").
"""

from __future__ import annotations

from repro.common.errors import ParameterError
from repro.common.hashing import mix64
from repro.sketches.count_mean_min import CountMeanMinSketch
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch

#: Recognised vague-part backends: the paper's Fig. 12 variants ("cs",
#: "cms") plus Count-Mean-Min ("cmm"), this reproduction's entry in the
#: paper's future-work question of which sketch fits the vague part.
BACKENDS = ("cs", "cms", "cmm")

_BACKEND_CLASSES = {
    "cs": CountSketch,
    "cms": CountMinSketch,
    "cmm": CountMeanMinSketch,
}


def vague_key(fingerprint: int, bucket_index: int) -> int:
    """Combine a fingerprint and its candidate bucket into a sketch key.

    The paper replaces ``h_i(x)`` with ``h_i(fp + h_b(x))``: as long as
    ``num_buckets * 2**fp_bits`` far exceeds the number of sketch
    counters, accuracy matches hashing the original key.
    """
    return mix64((bucket_index << 20) ^ fingerprint)


class VaguePart:
    """Sketch half of QuantileFilter, sized by rows x columns.

    Parameters
    ----------
    depth:
        Sketch rows ``d`` (paper default 3).
    width:
        Counters per row.
    backend:
        ``"cs"`` (Count Sketch, the paper's choice) or ``"cms"``.
    counter_kind:
        Counter storage width; the paper argues 16-bit (or even 8-bit)
        suffices thanks to sign-hash cancellation.
    """

    __slots__ = ("backend", "sketch")

    def __init__(
        self,
        depth: int = 3,
        width: int = 1024,
        backend: str = "cs",
        counter_kind: str = "int32",
        seed: int = 0,
    ):
        if backend not in BACKENDS:
            raise ParameterError(
                f"unknown vague backend {backend!r}; choose from {BACKENDS}"
            )
        self.backend = backend
        sketch_cls = _BACKEND_CLASSES[backend]
        self.sketch = sketch_cls(
            depth=depth, width=width, counter_kind=counter_kind, seed=seed
        )

    # ------------------------------------------------------------------
    # delegated operations (all keyed by the combined vague key)
    # ------------------------------------------------------------------
    def update_and_estimate(self, vkey: int, weight: float) -> float:
        """Fused insert + post-insert Qweight estimate (one hash pass)."""
        return self.sketch.update_and_estimate(vkey, weight)

    def update(self, vkey: int, weight: float) -> None:
        """Insert ``weight`` for ``vkey`` without estimating."""
        self.sketch.update(vkey, weight)

    def estimate(self, vkey: int) -> float:
        """Current Qweight estimate of ``vkey``."""
        return self.sketch.estimate(vkey)

    def delete(self, vkey: int, amount: float) -> None:
        """Remove ``amount`` of ``vkey``'s Qweight (reset / promotion)."""
        self.sketch.delete(vkey, amount)

    def clear(self) -> None:
        """Zero every counter (the periodic structure reset)."""
        self.sketch.clear()

    @property
    def depth(self) -> int:
        return self.sketch.depth

    @property
    def width(self) -> int:
        return self.sketch.width

    @property
    def nbytes(self) -> int:
        """Modelled memory footprint in bytes."""
        return self.sketch.nbytes
