"""The threads engine's result queue never fills.

Updater threads post one report batch for every chunk that reported a
fresh key, onto one bounded result queue that only the master drains.
The master drains it before every input-queue put, so between two
drains at most ``num_shards * (QUEUE_CAPACITY + 1)`` chunks complete:
fewer than the queue holds, so no updater blocks on it and the master
never waits out a put timeout while updaters sit idle.
"""

from repro.experiments.config import build_trace, default_criteria_for
from repro.parallel.pipeline import ParallelPipeline

CHUNK_ITEMS = 8_192


def test_threads_result_queue_stays_below_capacity():
    # zipf-small reports fresh keys in most chunks: the stream on which
    # an undrained queue used to fill.
    trace = build_trace("zipf-small", 200_000, seed=1)
    batches = []
    pipe = ParallelPipeline(
        default_criteria_for("zipf-small"), 2, engine="threads",
        memory_bytes=256 * 1024, chunk_items=CHUNK_ITEMS,
        on_reports=batches.append,
    )
    pipe.start()
    capacity = pipe._out_queue.maxsize
    sizes = []
    put = pipe._put

    def recording_put(shard_id, message):
        put(shard_id, message)
        sizes.append(pipe._out_queue.qsize())

    pipe._put = recording_put
    try:
        for at in range(0, len(trace.keys), CHUNK_ITEMS):
            pipe.feed(trace.keys[at:at + CHUNK_ITEMS],
                      trace.values[at:at + CHUNK_ITEMS])
        pipe.finish()
    finally:
        pipe.close()
    chunks = -(-len(trace.keys) // CHUNK_ITEMS)
    assert len(batches) > chunks // 2
    assert max(sizes) < capacity
