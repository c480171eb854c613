"""Zero-copy shared-memory chunk transport for the parallel pipeline.

The pipeline's process workers receive their chunk slices through
shared memory rather than as pickled ndarrays: the arrays are plain
fixed-width numbers that both sides can read in place, so a
serialize / pipe write / deserialize per chunk per shard is pure
overhead.

Each worker gets one :class:`ShmSlotRing`: a
``multiprocessing.shared_memory`` block carved into ``num_slots``
fixed-size chunk slots (an ``int64`` key plane followed by a
``float64`` value plane).  The master copies a chunk slice into a free
slot once; the queue then carries only a tiny ``("chunk", chunk_id,
slot_id, length)`` descriptor, and the worker maps the slot as numpy
views without copying anything.  Slot reuse is credit-based: a slot
stays owned by the in-flight chunk until the worker's report
acknowledgement for that chunk returns the ``slot_id`` to the master's
free list, so a ring of ``queue_capacity + 2`` slots can never be
overwritten while a worker still reads it.

Lifecycle: the master creates and ultimately unlinks every block;
workers attach by name and only close their mapping (see
:meth:`ShmSlotRing.attach` for why attaching leaves the resource
tracker alone).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from repro.common.errors import ParameterError

#: Bytes per stream item in a slot: one int64 key + one float64 value.
BYTES_PER_ITEM = 16


class ShmSlotRing:
    """A ring of fixed-size ``(keys, values)`` chunk slots in shared memory.

    Layout of the backing block::

        [ keys plane:   num_slots x slot_items  int64   ]
        [ values plane: num_slots x slot_items  float64 ]

    The master constructs with :meth:`create` and hands workers the
    block ``name``; workers construct with :meth:`attach`.  Slot
    scheduling (which slot is free) is the caller's job — the ring is
    just the memory.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        num_slots: int,
        slot_items: int,
        owner: bool,
    ):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._unlinked = False
        self.num_slots = num_slots
        self.slot_items = slot_items
        self.name = shm.name
        plane = num_slots * slot_items * 8
        self._keys = np.ndarray(
            (num_slots, slot_items), dtype=np.int64, buffer=shm.buf[:plane]
        )
        self._values = np.ndarray(
            (num_slots, slot_items),
            dtype=np.float64,
            buffer=shm.buf[plane:2 * plane],
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, num_slots: int, slot_items: int) -> "ShmSlotRing":
        """Master side: allocate a fresh block (caller unlinks it)."""
        if num_slots < 1:
            raise ParameterError(f"num_slots must be >= 1, got {num_slots}")
        if slot_items < 1:
            raise ParameterError(f"slot_items must be >= 1, got {slot_items}")
        shm = shared_memory.SharedMemory(
            create=True, size=num_slots * slot_items * BYTES_PER_ITEM
        )
        return cls(shm, num_slots, slot_items, owner=True)

    @classmethod
    def attach(cls, name: str, num_slots: int, slot_items: int) -> "ShmSlotRing":
        """Worker side: map an existing block by name.

        Python's :class:`~multiprocessing.shared_memory.SharedMemory`
        registers even *attached* segments with the resource tracker.
        ``multiprocessing`` children share the creator's tracker (the
        tracker fd is inherited on fork and shipped in the spawn
        preparation data), so the duplicate registration is harmless,
        and unregistering it here would erase the master's claim on
        the block.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, num_slots, slot_items, owner=False)

    # ------------------------------------------------------------------
    # slot I/O
    # ------------------------------------------------------------------
    def write(self, slot_id: int, keys: np.ndarray, values: np.ndarray) -> int:
        """Copy a chunk slice into ``slot_id``; returns the item count."""
        n = int(keys.shape[0])
        if n > self.slot_items:
            raise ParameterError(
                f"chunk of {n} items exceeds slot capacity {self.slot_items}"
            )
        self._keys[slot_id, :n] = keys
        self._values[slot_id, :n] = values
        return n

    def read(self, slot_id: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy views of the first ``length`` items of ``slot_id``."""
        return (
            self._keys[slot_id, :length],
            self._values[slot_id, :length],
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the backing shared block."""
        return self.num_slots * self.slot_items * BYTES_PER_ITEM

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent).

        Pipeline shutdown can reach here twice — an explicit
        ``pipeline.close()`` and the master's atexit sweep — so a
        latch makes the second call a strict no-op instead of
        re-running the teardown against an already-released mapping.
        """
        if self._closed:
            return
        self._closed = True
        # The numpy planes hold exported pointers into shm.buf; release
        # them first or SharedMemory.close() raises BufferError.
        self._keys = None
        self._values = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering external view
            pass

    def unlink(self) -> None:
        """Destroy the block (master only; harmless if already gone).

        Idempotent like :meth:`close`, and valid in any order with it:
        ``SharedMemory.unlink`` works by name, not by mapping, so
        ``close()`` first is fine, and a block someone else already
        unlinked is treated as gone rather than an error.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close paths
            pass
