"""Property: the thread-parallel engine == the single-thread batch engine.

Three claims, matching the equivalence model in
``repro.parallel.concurrent``'s module docstring:

1. **Single ingest** — one caller flushing through the commit lock is
   bit-identical (report set AND state fingerprint) to a
   ``BatchQuantileFilter`` fed the same flush chunks: the engine
   reorders nothing.
2. **No-overflow regime** — with bucket-affine feeding and buckets that
   never overflow into the vague part, any number of *racing* threads
   produce the exact single-thread state: candidate interactions are
   bucket-local, each bucket's items arrive through one thread in
   stream order, and cross-bucket commits touch disjoint memory.
3. **Witness replay** — in the general regime (overflow, elections,
   arbitrary key partition), replaying the commit-ordered witness log
   through a fresh batch filter reproduces the racing filter's shared
   planes bit-exactly.

Hypothesis picks the geometry, stream and flush size — any divergence
is a real bug in the commit path.
"""

import itertools
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import Criteria
from repro.core.persistence import state_fingerprint
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.concurrent import ConcurrentQuantileFilter, replay_witness
from repro.streams.model import Trace


def _stream(stream_seed, n, num_keys, threshold):
    rng = np.random.default_rng(stream_seed)
    keys = rng.integers(0, num_keys, size=n).astype(np.int64)
    values = np.where(
        rng.random(n) < 0.3, threshold * 6.0,
        rng.uniform(0, threshold, n),
    )
    return keys, values


@st.composite
def geometries(draw):
    return dict(
        num_buckets=draw(st.integers(min_value=1, max_value=24)),
        bucket_size=draw(st.integers(min_value=1, max_value=6)),
        vague_width=draw(st.integers(min_value=1, max_value=96)),
        depth=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=500)),
    )


@st.composite
def scenarios(draw):
    return dict(
        geometry=draw(geometries()),
        chunk_size=draw(st.sampled_from([1, 3, 17, 64, 256])),
        criteria=Criteria(
            delta=draw(st.sampled_from([0.5, 0.9, 0.95])),
            threshold=50.0,
            epsilon=draw(st.sampled_from([0.0, 2.0])),
        ),
        n=draw(st.integers(min_value=1, max_value=400)),
        stream_seed=draw(st.integers(min_value=0, max_value=1_000)),
    )


def _uneven_pieces(idx, sizes=(1, 5, 2, 9, 3)):
    """``idx`` cut into pieces of cycling uneven sizes."""
    lo = 0
    for size in itertools.cycle(sizes):
        if lo >= idx.size:
            return
        yield idx[lo:lo + size]
        lo += size


def _assert_same_state(cqf, reference):
    assert cqf.reported_keys == reference.reported_keys
    assert cqf.report_count == reference.report_count
    assert cqf.items_processed == reference.items_processed
    assert state_fingerprint(cqf) == state_fingerprint(reference)


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_single_ingest_equals_batch_over_flushes(scenario):
    criteria = scenario["criteria"]
    keys, values = _stream(
        scenario["stream_seed"], scenario["n"], 30, criteria.threshold
    )

    cqf = ConcurrentQuantileFilter(
        criteria, **scenario["geometry"], chunk_size=scenario["chunk_size"],
    )
    cqf.process(keys, values)

    reference = BatchQuantileFilter(
        criteria, **scenario["geometry"], chunk_size=scenario["chunk_size"],
    )
    for chunk_keys, chunk_values in Trace(keys, values).iter_chunks(
        scenario["chunk_size"]
    ):
        reference._process_chunk(chunk_keys, chunk_values)

    _assert_same_state(cqf, reference)


@st.composite
def affine_scenarios(draw):
    # No-overflow guarantee: fewer distinct keys than slots per bucket,
    # so no bucket can ever spill into the vague part.
    num_keys = draw(st.integers(min_value=1, max_value=5))
    geometry = draw(geometries())
    geometry["bucket_size"] = draw(
        st.integers(min_value=num_keys, max_value=8)
    )
    return dict(
        geometry=geometry,
        num_keys=num_keys,
        num_threads=draw(st.integers(min_value=2, max_value=4)),
        chunk_size=draw(st.sampled_from([7, 64])),
        n=draw(st.integers(min_value=50, max_value=1_500)),
        stream_seed=draw(st.integers(min_value=0, max_value=1_000)),
    )


@given(scenario=affine_scenarios())
@settings(max_examples=20, deadline=None)
def test_racing_bucket_affine_threads_match_batch_when_no_overflow(scenario):
    criteria = Criteria(delta=0.9, threshold=50.0, epsilon=2.0)
    keys, values = _stream(
        scenario["stream_seed"], scenario["n"], scenario["num_keys"],
        criteria.threshold,
    )

    cqf = ConcurrentQuantileFilter(
        criteria, **scenario["geometry"], chunk_size=scenario["chunk_size"],
    )
    # Bucket-affine partition: each bucket's stream goes to one thread.
    _, buckets, _ = cqf._chunk_parts(keys, values)
    num_threads = scenario["num_threads"]
    owner = buckets % num_threads
    slices = [np.flatnonzero(owner == t) for t in range(num_threads)]

    barrier = threading.Barrier(num_threads)

    def run(idx):
        barrier.wait()
        with cqf.ingest() as ingest:
            for piece in _uneven_pieces(idx):
                ingest.insert_many(keys[piece], values[piece])

    threads = [
        threading.Thread(target=run, args=(idx,)) for idx in slices
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # Any per-thread serialization is a valid linearization here; use
    # the thread-concatenated order (per-bucket order == stream order).
    reference = BatchQuantileFilter(
        criteria, **scenario["geometry"], chunk_size=scenario["chunk_size"],
    )
    for idx in slices:
        if idx.size:
            reference.process(keys[idx], values[idx])

    _assert_same_state(cqf, reference)
    assert cqf.vague_inserts == 0  # the regime's precondition held


@given(scenario=scenarios(), num_threads=st.integers(min_value=2, max_value=3))
@settings(max_examples=15, deadline=None)
def test_witness_replay_reproduces_racing_threads_bit_exactly(
    scenario, num_threads
):
    criteria = scenario["criteria"]
    keys, values = _stream(
        scenario["stream_seed"], max(scenario["n"], num_threads), 30,
        criteria.threshold,
    )

    cqf = ConcurrentQuantileFilter(
        criteria, **scenario["geometry"], chunk_size=scenario["chunk_size"],
    )
    cqf.witness = []
    # Arbitrary (non-affine) round-robin partition: full general regime.
    slices = [
        np.arange(t, keys.shape[0], num_threads)
        for t in range(num_threads)
    ]
    barrier = threading.Barrier(num_threads)

    def run(idx):
        barrier.wait()
        ingest = cqf.ingest()
        ingest.insert_many(keys[idx], values[idx])
        ingest.flush()

    threads = [
        threading.Thread(target=run, args=(idx,)) for idx in slices
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    replayed = replay_witness(cqf.witness, cqf)
    _assert_same_state(cqf, replayed)
