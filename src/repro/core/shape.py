"""A filter's shape: how a byte budget becomes one, and how to copy one.

Every accuracy-vs-memory result rests on one rule (Sec. III-A), which
:func:`resolve_shape` applies for every engine.  :func:`shape_of` reads
a built filter's shape back as the keywords that build one like it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import ParameterError
from repro.common.memory import bits_to_bytes, sizeof_counter, split_budget

#: Default split of the byte budget: candidate:vague = 4:1 (Fig. 11).
DEFAULT_CANDIDATE_FRACTION = 0.8

#: Modelled bytes of one Qweight counter in a candidate entry.
QWEIGHT_COUNTER_BYTES = 4

#: Modelled bytes of one vague counter of the batch and threads engines:
#: they store float64 but charge 32 bits, so their vague part is twice
#: as wide as a scalar ``counter_kind="float"`` filter's at one budget.
BATCH_COUNTER_BYTES = sizeof_counter("int32")


def slot_bytes(fp_bits: int) -> int:
    """Modelled bytes of one candidate slot: fingerprint plus Qweight."""
    return bits_to_bytes(fp_bits) + QWEIGHT_COUNTER_BYTES


def resolve_shape(
    memory_bytes: Optional[int] = None,
    num_buckets: Optional[int] = None,
    vague_width: Optional[int] = None,
    *,
    counter_bytes: int,
    bucket_size: int = 6,
    depth: int = 3,
    fp_bits: int = 16,
    candidate_fraction: float = DEFAULT_CANDIDATE_FRACTION,
) -> Tuple[int, int]:
    """``(num_buckets, width)`` of a filter built from these arguments.

    ``memory_bytes`` splits ``candidate_fraction`` : rest between the
    parts (4:1 by default).  The candidate part takes the most whole
    buckets of ``bucket_size`` slots its share buys, at least one; the
    vague part the widest ``depth`` rows of ``counter_bytes`` counters,
    at least one column.  Without a budget, ``num_buckets`` and
    ``vague_width`` are the shape.
    """
    if memory_bytes is None:
        if num_buckets is None or vague_width is None:
            raise ParameterError(
                "pass either memory_bytes or both num_buckets and vague_width"
            )
        return num_buckets, vague_width
    candidate_bytes, vague_bytes = split_budget(memory_bytes, candidate_fraction)
    slots = max(bucket_size, candidate_bytes // slot_bytes(fp_bits))
    return (
        max(1, slots // bucket_size),
        max(1, vague_bytes // (depth * counter_bytes)),
    )


def shape_of(filt) -> dict:
    """The constructor keywords of an empty filter shaped like ``filt``.

    ``filt`` is a scalar, batch or threads filter.  The shape fixes
    every hash family, so the new filter addresses the cells ``filt``
    does; a scalar filter's adds its ``counter_kind`` and
    ``vague_backend``.
    """
    shape = dict(
        num_buckets=filt.num_buckets,
        vague_width=filt.width,
        bucket_size=filt.bucket_size,
        depth=filt.depth,
        fp_bits=filt.fp_bits,
        strategy=filt.strategy.name,
        seed=filt.seed,
    )
    vague = getattr(filt, "vague", None)
    if vague is not None:
        shape.update(
            counter_kind=vague.sketch.counters.kind,
            vague_backend=vague.backend,
        )
    return shape
