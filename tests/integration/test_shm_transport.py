"""The shm chunk transport: slot credits, ring arithmetic, validation.

Process workers receive every chunk slice through a shared-memory slot
ring with credit-based reuse.  These tests pin, on a 200k-item
CAIDA-like trace, per-shard agreement with the in-process sharded
filter on both process engines, slot-credit exhaustion and reuse under
a deliberately tiny ring, the crash surface (a SIGKILLed worker must
raise, not hang, and the shared blocks must be unlinked), the ring
arithmetic and shutdown idempotence, and the ``transport`` keyword:
``"shm"`` is the default and the only accepted value.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.parallel.pipeline import ParallelPipeline, WorkerCrashError
from repro.parallel.sharded import ShardedQuantileFilter
from repro.parallel.transport import ShmSlotRing
from repro.streams.caida_like import CaidaLikeConfig, generate_caida_like_trace

CRITERIA = Criteria(delta=0.95, threshold=200.0, epsilon=30.0)
GEOMETRY = dict(num_buckets=4_096, vague_width=2_048, seed=0)


@pytest.fixture(scope="module")
def trace():
    return generate_caida_like_trace(
        CaidaLikeConfig(num_items=200_000, num_keys=5_000, seed=0)
    )


def _assert_no_live_workers(pipe):
    for worker in pipe.workers:
        assert not worker.is_alive(), f"worker {worker.name} still alive"


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_shm_matches_inprocess_sharding(trace, engine):
    sharded = ShardedQuantileFilter(
        CRITERIA, 4, engine=engine, counter_kind="float", **GEOMETRY
    )
    expected = sharded.process(trace.keys, trace.values)

    pipe = ParallelPipeline(CRITERIA, 4, engine=engine, **GEOMETRY)
    result = pipe.run(trace.keys, trace.values)
    _assert_no_live_workers(pipe)

    assert result.reported_keys == expected
    assert result.items == len(trace)
    assert result.per_shard_items == sharded.shard_items()
    assert result.per_shard_reports == [
        shard.report_count for shard in sharded.shards
    ]


def test_shm_slot_ring_wraps_under_tiny_capacity(trace):
    # queue_capacity=1 -> 3 slots per worker; 200k items in 4k chunks
    # forces every slot to be returned and reused many times over.
    expected = ShardedQuantileFilter(
        CRITERIA, 2, engine="batch", **GEOMETRY
    ).process(trace.keys, trace.values)

    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", chunk_items=4_096, queue_capacity=1,
        **GEOMETRY,
    )
    result = pipe.run(trace.keys, trace.values)
    _assert_no_live_workers(pipe)
    assert result.reported_keys == expected
    assert result.chunks == -(-len(trace) // 4_096)


def test_shm_worker_crash_surfaces_error_and_unlinks(trace):
    pipe = ParallelPipeline(
        CRITERIA, 3, engine="batch", chunk_items=8_192, stall_timeout=20.0,
        **GEOMETRY,
    )
    pipe.start()
    ring_names = [ring.name for ring in pipe._rings]
    start = time.perf_counter()
    try:
        with pytest.raises(WorkerCrashError) as excinfo:
            first = True
            for begin in range(0, len(trace), pipe.chunk_items):
                end = begin + pipe.chunk_items
                pipe.feed(trace.keys[begin:end], trace.values[begin:end])
                if first:
                    os.kill(pipe.workers[1].pid, signal.SIGKILL)
                    first = False
            pipe.finish()
        elapsed = time.perf_counter() - start
        assert elapsed < pipe.stall_timeout + 10.0
        assert "shard 1" in str(excinfo.value)
    finally:
        pipe.close()
    _assert_no_live_workers(pipe)
    # close() must have destroyed every shared block.
    assert pipe._rings is None
    for name in ring_names:
        assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def test_slot_ring_roundtrip_and_validation():
    ring = ShmSlotRing.create(num_slots=3, slot_items=8)
    try:
        peer = ShmSlotRing.attach(ring.name, 3, 8)
        try:
            keys = np.arange(5, dtype=np.int64) + 100
            values = np.linspace(0.0, 1.0, 5)
            assert ring.write(1, keys, values) == 5
            got_keys, got_values = peer.read(1, 5)
            assert np.array_equal(got_keys, keys)
            assert np.array_equal(got_values, values)
            # Oversized chunks are rejected, not truncated.
            with pytest.raises(ParameterError):
                ring.write(0, np.zeros(9, dtype=np.int64), np.zeros(9))
        finally:
            peer.close()
    finally:
        ring.close()
        ring.unlink()
    with pytest.raises(ParameterError):
        ShmSlotRing.create(num_slots=0, slot_items=8)
    with pytest.raises(ParameterError):
        ShmSlotRing.create(num_slots=1, slot_items=0)


def test_transport_validation():
    with pytest.raises(ParameterError, match="pickle transport was removed"):
        ParallelPipeline(CRITERIA, 2, transport="pickle", **GEOMETRY)
    with pytest.raises(ParameterError):
        ParallelPipeline(CRITERIA, 2, transport="carrier-pigeon", **GEOMETRY)


@pytest.mark.parametrize("engine", ["batch", "scalar", "threads"])
def test_shm_is_the_default_transport(trace, engine):
    keys, values = trace.keys[:20_000], trace.values[:20_000]
    for kwargs in ({}, {"transport": "shm"}):
        pipe = ParallelPipeline(
            CRITERIA, 2, engine=engine, chunk_items=4_096, **kwargs,
            **GEOMETRY,
        )
        assert pipe.run(keys, values).items == len(keys)


def test_slot_ring_shutdown_is_idempotent():
    """Double close()/unlink() in any interleaving must be a no-op.

    Pipeline shutdown can reach the ring twice (explicit close plus the
    master's atexit sweep), and historically the second pass re-ran the
    teardown against an already-released mapping.
    """
    ring = ShmSlotRing.create(num_slots=2, slot_items=4)
    name = ring.name
    ring.close()
    ring.close()          # second close: latched no-op
    ring.unlink()
    ring.unlink()         # second unlink: latched no-op
    ring.close()          # close after unlink still fine
    assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")

    # unlink-before-close ordering (atexit sweep beating close()).
    ring2 = ShmSlotRing.create(num_slots=2, slot_items=4)
    ring2.unlink()
    ring2.close()
    ring2.unlink()

    # An attached (non-owner) peer must never unlink the block.
    ring3 = ShmSlotRing.create(num_slots=2, slot_items=4)
    try:
        peer = ShmSlotRing.attach(ring3.name, 2, 4)
        peer.unlink()
        peer.unlink()
        assert os.path.exists(f"/dev/shm/{ring3.name.lstrip('/')}")
        peer.close()
        peer.close()
    finally:
        ring3.close()
        ring3.unlink()
