"""Soak the full parallel stack on a 200k-item CAIDA-like trace.

These tests exercise the process-backed :class:`ParallelPipeline`
end-to-end: agreement with the deterministic in-process sharded filter
and — the part unit tests cannot cover — the failure model.  A worker
killed mid-stream, or while the master waits for a request reply, must
surface as a :class:`WorkerCrashError` within the stall budget and leave
no live child processes and no shared-memory blocks behind, and a worker
that raises must surface as a :class:`WorkerFailedError` carrying its
traceback; a hang here is a bug.
"""

import os
import queue
import signal
import time

import pytest

from repro.core.criteria import Criteria
from repro.parallel.pipeline import (
    ParallelPipeline,
    WorkerCrashError,
    WorkerFailedError,
)
from repro.parallel.sharded import ShardedQuantileFilter
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


def _assert_shm_unlinked(pipe, ring_names):
    # close() must have destroyed every shared block.
    assert pipe._rings is None
    for name in ring_names:
        assert not os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def test_pipeline_matches_inprocess_sharding(trace):
    sharded = ShardedQuantileFilter(CRITERIA, 4, engine="batch", **GEOMETRY)
    expected = sharded.process(trace.keys, trace.values)

    pipe = ParallelPipeline(CRITERIA, 4, engine="batch", **GEOMETRY)
    result = pipe.run(trace.keys, trace.values)

    assert result.items == len(trace)
    assert sum(result.per_shard_items) == len(trace)
    assert result.reported_keys == expected
    assert result.reported_keys == sharded.reported_keys
    assert sum(result.per_shard_reports) == sharded.report_count
    _assert_no_live_workers(pipe)


def test_worker_crash_surfaces_error_not_hang(trace):
    pipe = ParallelPipeline(
        CRITERIA, 3, engine="batch", chunk_items=8_192, stall_timeout=20.0,
        **GEOMETRY,
    )
    pipe.start()
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
        # Surfaced well before anything resembling a hang.
        assert elapsed < pipe.stall_timeout + 10.0
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "died" in message
    finally:
        pipe.close()
    _assert_no_live_workers(pipe)


def test_worker_crash_while_awaiting_stats_reply(trace):
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", collect_stats=True, stall_timeout=20.0,
        **GEOMETRY,
    )
    pipe.start()
    ring_names = [ring.name for ring in pipe._rings]
    try:
        pipe.feed(trace.keys[:50_000], trace.values[:50_000])
        pipe.collect_stats_view()  # every queued chunk is consumed
        os.kill(pipe.workers[1].pid, signal.SIGKILL)
        pipe.workers[1].join(timeout=10.0)
        assert not pipe.workers[1].is_alive()
        start = time.perf_counter()
        with pytest.raises(WorkerCrashError, match="shard 1"):
            pipe.collect_stats_view()
        assert time.perf_counter() - start < pipe.stall_timeout
    finally:
        pipe.close()
    _assert_no_live_workers(pipe)
    _assert_shm_unlinked(pipe, ring_names)


def test_worker_exception_surfaces_traceback(trace):
    pipe = ParallelPipeline(
        CRITERIA, 2, engine="batch", stall_timeout=20.0, **GEOMETRY,
    )
    pipe.start()
    try:
        pipe.feed(trace.keys[:20_000], trace.values[:20_000])
        # An unknown message kind raises inside worker 0's loop.  Drain
        # acks while enqueuing: a blocking put against a full result
        # queue would deadlock, which feed()'s backpressure prevents.
        while True:
            try:
                pipe._in_queues[0].put(("poison",), timeout=0.5)
                break
            except queue.Full:
                pipe._drain(block=False)
        with pytest.raises(WorkerFailedError) as excinfo:
            pipe.finish()
    finally:
        pipe.close()
    message = str(excinfo.value)
    assert "shard 0 worker raised" in message
    assert "unknown worker message 'poison'" in message
    _assert_no_live_workers(pipe)
