"""Barrier-driven stress test for the thread-parallel engine.

Eight updater threads (override with ``QF_STRESS_THREADS``) race 200k
items into one shared filter, released simultaneously by a barrier so
the commit lock sees real contention, while the main thread scrapes
what ``/metrics`` reads.  The witness log then proves no
report was lost or duplicated: replaying the commit-ticket
linearization through a fresh single-thread batch filter must
reproduce the racing filter's report set and planes bit-exactly.
"""

import os
import threading

import numpy as np

from repro.core.criteria import Criteria
from repro.core.inspect import structural_probe
from repro.core.persistence import state_fingerprint
from repro.observability.instrument import observe_filter
from repro.parallel.concurrent import ConcurrentQuantileFilter, replay_witness

NUM_THREADS = int(os.environ.get("QF_STRESS_THREADS", "8"))
TOTAL_ITEMS = 200_000
CRIT = Criteria(delta=0.95, threshold=100.0, epsilon=5.0)


def test_racing_threads_lose_and_duplicate_no_reports():
    cqf = ConcurrentQuantileFilter(
        CRIT, num_buckets=256, vague_width=2_048, bucket_size=4,
        depth=3, seed=7, chunk_size=1_024,
    )
    cqf.witness = []
    # Observed before the race, so the hot-loop tallies it turns on
    # count every commit (the replay below compares them too).
    registry = observe_filter(cqf)
    per_thread = TOTAL_ITEMS // NUM_THREADS
    rng = np.random.default_rng(7)
    # Hot keys each ship >= 40 items far above T — their detection does
    # not depend on commit interleaving, so they must always report.
    hot = np.arange(50, dtype=np.int64)
    streams = []
    for t in range(NUM_THREADS):
        keys = rng.integers(100, 5_000, size=per_thread).astype(np.int64)
        values = rng.uniform(0, CRIT.threshold, per_thread)
        spots = rng.choice(per_thread, size=50 * 40 // NUM_THREADS,
                           replace=False)
        keys[spots] = rng.choice(hot, size=spots.size)
        values[spots] = CRIT.threshold * 10.0
        streams.append((keys, values))

    barrier = threading.Barrier(NUM_THREADS)
    errors = []

    def run(t):
        keys, values = streams[t]
        try:
            barrier.wait()
            ingest = cqf.ingest()
            ingest.insert_many(keys, values)
            ingest.flush()
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(t,), name=f"stress-{t}")
        for t in range(NUM_THREADS)
    ]
    for t in threads:
        t.start()
    items_seen, occupancies = [], []
    while any(t.is_alive() for t in threads):
        # Scrape the telemetry and the structure against live commits.
        snapshot = registry.snapshot()
        probe = structural_probe(cqf)
        items_seen.append(snapshot["qf_items_total"])
        occupancies += [
            snapshot["qf_candidate_occupancy"], probe["candidate_occupancy"]
        ]
        _ = cqf.reported_keys
    for t in threads:
        t.join()
    assert errors == []
    assert items_seen == sorted(items_seen)  # the counter never went back
    assert all(0.0 <= occupancy <= 1.0 for occupancy in occupancies)
    assert cqf.items_processed == per_thread * NUM_THREADS
    assert len(cqf.witness) == cqf.thread_flushes

    # No report lost (and none invented): the executed linearization,
    # replayed single-threaded, yields the same report set, the same
    # report-event count, and bit-identical planes.
    replayed = replay_witness(cqf.witness, cqf)
    assert cqf.reported_keys == replayed.reported_keys
    assert cqf.report_count == replayed.report_count
    assert state_fingerprint(cqf) == state_fingerprint(replayed)

    # The guaranteed detections all fired.
    assert set(hot.tolist()) <= cqf.reported_keys
