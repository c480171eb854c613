"""The candidate part: bucketed fingerprint table of elected keys.

An array of ``num_buckets`` buckets, each holding up to ``bucket_size``
entries ``<fingerprint, Qweight>`` (Sec. III-B).  Keys living here get
*exact* per-key Qweight counters, immune to sketch collisions — that is
the accuracy win Theorem 2/3 quantifies.

Storage is two parallel numpy arrays (fingerprints and Qweights); a
fingerprint of 0 marks an empty slot, which is why
:class:`~repro.common.hashing.FingerprintHasher` never emits 0.
Memory is modelled as ``fp_bits/8 + 4`` bytes per slot (16-bit
fingerprint + 32-bit counter = 6 bytes by default, matching the paper's
layout).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ParameterError
from repro.common.validation import require_positive_int
from repro.core.shape import slot_bytes


class CandidatePart:
    """Bucketed store of ``<fingerprint, Qweight>`` candidate entries."""

    __slots__ = ("num_buckets", "bucket_size", "fp_bits", "_fps", "_qws")

    def __init__(self, num_buckets: int, bucket_size: int = 6, fp_bits: int = 16):
        require_positive_int("num_buckets", num_buckets)
        require_positive_int("bucket_size", bucket_size)
        if not 1 <= fp_bits <= 64:
            raise ParameterError(f"fp_bits must be in [1, 64], got {fp_bits}")
        self.num_buckets = num_buckets
        self.bucket_size = bucket_size
        self.fp_bits = fp_bits
        self._fps = np.zeros((num_buckets, bucket_size), dtype=np.uint64)
        self._qws = np.zeros((num_buckets, bucket_size), dtype=np.float64)

    # ------------------------------------------------------------------
    # slot operations
    # ------------------------------------------------------------------
    def find(self, bucket: int, fingerprint: int) -> Optional[int]:
        """Slot index of ``fingerprint`` in ``bucket``, or None."""
        row = self._fps[bucket]
        for slot in range(self.bucket_size):
            if row[slot] == fingerprint:
                return slot
        return None

    def free_slot(self, bucket: int) -> Optional[int]:
        """Index of an empty slot in ``bucket``, or None when full."""
        row = self._fps[bucket]
        for slot in range(self.bucket_size):
            if row[slot] == 0:
                return slot
        return None

    def get_qweight(self, bucket: int, slot: int) -> float:
        """Qweight stored in ``(bucket, slot)``."""
        return float(self._qws[bucket, slot])

    def add_qweight(self, bucket: int, slot: int, delta: float) -> float:
        """Add ``delta`` to the slot's Qweight; returns the new value."""
        self._qws[bucket, slot] += delta
        return float(self._qws[bucket, slot])

    def set_entry(self, bucket: int, slot: int, fingerprint: int, qweight: float) -> None:
        """Overwrite ``(bucket, slot)`` with a new entry."""
        self._fps[bucket, slot] = fingerprint
        self._qws[bucket, slot] = qweight

    def reset_qweight(self, bucket: int, slot: int) -> None:
        """Zero the slot's Qweight (after a report), keeping the entry."""
        self._qws[bucket, slot] = 0.0

    def evict(self, bucket: int, slot: int) -> Tuple[int, float]:
        """Remove and return the slot's ``(fingerprint, qweight)``."""
        fp = int(self._fps[bucket, slot])
        qw = float(self._qws[bucket, slot])
        self._fps[bucket, slot] = 0
        self._qws[bucket, slot] = 0.0
        return fp, qw

    def min_entry(self, bucket: int) -> Tuple[int, float]:
        """Occupied slot with the smallest Qweight: ``(slot, qweight)``.

        Only call on a full bucket (insertion path guarantees this); on
        a bucket with empty slots the empties' zero Qweights are ignored.
        """
        row_fps = self._fps[bucket]
        row_qws = self._qws[bucket]
        best_slot = -1
        best_qw = np.inf
        for slot in range(self.bucket_size):
            if row_fps[slot] != 0 and row_qws[slot] < best_qw:
                best_qw = float(row_qws[slot])
                best_slot = slot
        if best_slot < 0:
            raise ParameterError(f"bucket {bucket} is empty; no minimum entry")
        return best_slot, best_qw

    # ------------------------------------------------------------------
    # maintenance and stats
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Empty every bucket (the periodic structure reset)."""
        self._fps[...] = 0
        self._qws[...] = 0.0

    def bucket_occupancy(self, bucket: int) -> int:
        """Occupied slots in one bucket (report-provenance context)."""
        return int(np.count_nonzero(self._fps[bucket]))

    def occupancy(self) -> float:
        """Fraction of slots currently holding an entry."""
        return float(np.count_nonzero(self._fps)) / self._fps.size

    def entry_count(self) -> int:
        """Number of occupied slots."""
        return int(np.count_nonzero(self._fps))

    @property
    def nbytes(self) -> int:
        """Modelled bytes: ``(fp_bits/8 + 4)`` per slot."""
        return self.num_buckets * self.bucket_size * slot_bytes(self.fp_bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidatePart(num_buckets={self.num_buckets}, "
            f"bucket_size={self.bucket_size}, fp_bits={self.fp_bits}, "
            f"occupancy={self.occupancy():.2f})"
        )
