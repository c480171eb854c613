"""Unit tests for the thread-parallel shared-sketch engine.

Bit-exact equivalence against the batch engine is pinned by
``tests/properties/test_property_concurrent_equivalence.py`` and the
contention behaviour by ``test_concurrent_stress.py``; this file covers
the API surface — report reads, snapshots, retargeting, ingest buffers,
validation — and ``ParallelPipeline(engine="threads")`` end to end.
"""

import itertools

import numpy as np
import pytest

from repro.common.errors import ParameterError
from repro.core import vectorized
from repro.core.criteria import Criteria
from repro.core.persistence import (
    engine_state,
    restore_engine,
    state_fingerprint,
)
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.parallel.concurrent import ConcurrentQuantileFilter, replay_witness
from repro.parallel.pipeline import ParallelPipeline

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=128, vague_width=512, bucket_size=4, seed=3)


def _trace(n=20_000, seed=5):
    # Mostly sub-threshold noise over many keys, plus 20 hot keys whose
    # items sit far above T — those reliably accumulate Qweight.
    rng = np.random.default_rng(seed)
    keys = rng.integers(100, 2_000, size=n).astype(np.int64)
    values = rng.uniform(0, CRIT.threshold, n)
    hot = rng.random(n) < 0.05
    keys[hot] = rng.integers(0, 20, size=int(hot.sum()))
    values[hot] = 800.0
    return keys, values


def _fed(n=20_000, **overrides):
    params = {**GEOMETRY, **overrides}
    cqf = ConcurrentQuantileFilter(CRIT, **params)
    keys, values = _trace(n)
    cqf.process(keys, values)
    return cqf, keys, values


class TestReadPath:
    def test_reports_alias_and_dedup(self):
        cqf, _, _ = _fed()
        reported = cqf.reported_keys
        assert len(reported) > 0
        assert cqf.report_count >= len(reported)
        # A copy of the shared set: the caller cannot alias it.
        reported.add(-1)
        assert -1 not in cqf.reported_keys

    def test_accounting_proxies(self):
        cqf, keys, _ = _fed()
        assert cqf.items_processed == keys.shape[0]
        assert cqf.report_count >= len(cqf.reported_keys)
        assert cqf.thread_flushes > 0
        assert 0.0 <= cqf.occupancy() <= 1.0
        assert cqf.entry_count() > 0
        assert cqf.nbytes > 0
        assert cqf.candidate_hit_rate() >= 0.0


class TestInheritance:
    #: Batch-engine members the threads engine inherits without its
    #: lock: each only reads, so a scrape may call it during a commit.
    READ_ONLY = {"entry_count", "occupancy", "candidate_hit_rate", "nbytes"}

    def test_every_public_batch_member_is_locked_or_read_only(self):
        # A mutator added to the batch engine fails here until someone
        # decides how the threads engine takes its lock around it.
        public = {
            name for name in vars(BatchQuantileFilter)
            if not name.startswith("_")
        }
        overridden = public & set(vars(ConcurrentQuantileFilter))
        assert overridden == {"process", "retarget", "reported_keys"}
        assert public - overridden == self.READ_ONLY


class TestSnapshots:
    def test_capture_is_independent(self):
        cqf, _, _ = _fed(n=5_000)
        state = engine_state(cqf)
        twin = restore_engine(state)
        assert isinstance(twin, BatchQuantileFilter)
        before = twin.items_processed
        planes = state["arrays"]["candidate_qws"].copy()
        cqf.process(*_trace(n=1_000, seed=9))
        assert twin.items_processed == before  # frozen copy
        assert np.array_equal(state["arrays"]["candidate_qws"], planes)

    def test_capture_restores_as_scalar(self):
        cqf, _, _ = _fed(n=5_000)
        scalar = restore_engine(engine_state(cqf), engine="scalar")
        assert isinstance(scalar, QuantileFilter)
        assert scalar.reported_keys == cqf.reported_keys


class TestRetarget:
    def test_moves_threshold_and_counts(self):
        cqf, _, _ = _fed(n=2_000)
        new = cqf.retarget(250.0)
        assert new.threshold == 250.0
        assert cqf.criteria.threshold == 250.0
        assert cqf.retargets == 1
        cqf.process(*_trace(n=2_000, seed=10))  # still ingests fine

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "numpy"])
    def test_retarget_between_hashing_and_commit_replays_exactly(
        self, compiled, monkeypatch
    ):
        # A retarget lands after the second flush hashed its buffer
        # under the old T and before it commits.  The flush must commit
        # under the new T, as replaying the witness with the retarget at
        # its epoch boundary does.
        if not compiled:
            monkeypatch.setattr(vectorized, "_qf_kernel", lambda: None)
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=1_000)
        cqf.witness = []
        hash_chunk = cqf._hash
        hashed_chunks, epochs = [], []

        def hash_then_retarget(*args):
            hashed = hash_chunk(*args)
            hashed_chunks.append(len(args[0]))
            if len(hashed_chunks) == 2:
                epochs.append(len(cqf.witness))
                cqf.retarget(80.0)
            return hashed

        monkeypatch.setattr(cqf, "_hash", hash_then_retarget)
        keys, values = _trace(n=3_000)
        cqf.process(keys, values)
        assert hashed_chunks == [1_000] * 3 and epochs == [1]

        replayed = BatchQuantileFilter(CRIT, **GEOMETRY, chunk_size=1_000)
        for index, segment in enumerate(cqf.witness):
            if index == epochs[0]:
                replayed.retarget(80.0)
            replayed.process(segment.keys, segment.values)
        assert state_fingerprint(cqf) == state_fingerprint(replayed)

    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "numpy"])
    def test_witness_replay_spans_a_retarget(self, compiled, monkeypatch):
        # The log records the retarget as an empty segment, so the
        # replay runs each flush under the T it committed under rather
        # than every flush under the final T.
        if not compiled:
            monkeypatch.setattr(vectorized, "_qf_kernel", lambda: None)
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=1_000)
        cqf.witness = []
        keys, values = _trace(n=20_000)
        cqf.process(keys[:10_000], values[:10_000])
        cqf.retarget(60.0)
        cqf.process(keys[10_000:], values[10_000:])
        lengths = [len(segment.keys) for segment in cqf.witness]
        assert lengths == [1_000] * 10 + [0] + [1_000] * 10
        assert [segment.threshold for segment in cqf.witness] == (
            [100.0] * 10 + [60.0] * 11
        )
        replayed = replay_witness(cqf.witness, cqf)
        assert replayed.reported_keys == cqf.reported_keys
        assert state_fingerprint(cqf) == state_fingerprint(replayed)


def _pieces(n, sizes=(1, 4, 2, 7, 3)):
    """Uneven ``[lo, hi)`` pieces covering ``range(n)``."""
    lo = 0
    for size in itertools.cycle(sizes):
        if lo >= n:
            return
        yield lo, min(lo + size, n)
        lo += size


class TestThreadIngest:
    def test_buffers_until_chunk_size(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=10)
        ingest = cqf.ingest()
        keys = np.arange(10, dtype=np.int64)
        ones = np.ones(10)
        for lo, hi in ((0, 1), (1, 5), (5, 9)):
            ingest.insert_many(keys[lo:hi], ones[lo:hi])
        assert ingest.pending == 9
        assert cqf.items_processed == 0
        ingest.insert_many(keys[9:], ones[9:])  # tenth item: auto-flush
        assert ingest.pending == 0
        assert cqf.items_processed == 10

    def test_context_manager_flushes_tail(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=100)
        with cqf.ingest() as ingest:
            ingest.insert_many([1, 2, 3], [1.0, 1.0, 1.0])
            assert ingest.pending == 3
        assert cqf.items_processed == 3

    def test_insert_many_streams_arrays(self):
        cqf = ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=64)
        keys, values = _trace(n=1_000)
        ingest = cqf.ingest()
        ingest.insert_many(keys[:7], values[:7])  # buffered first, in order
        ingest.insert_many(keys[7:], values[7:])  # crosses 64: flush all
        assert cqf.items_processed == 1_000
        assert ingest.pending == 0

    def test_matches_process(self):
        keys, values = _trace(n=8_000)
        via_process = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        via_process.process(keys, values)
        via_ingest = ConcurrentQuantileFilter(CRIT, **GEOMETRY)
        with via_ingest.ingest() as ingest:
            for lo, hi in _pieces(keys.shape[0]):
                ingest.insert_many(keys[lo:hi], values[lo:hi])
        assert via_ingest.reported_keys == via_process.reported_keys

    @pytest.mark.parametrize("reject", [
        lambda ing: ing.insert_many(np.arange(5), [1.0, np.nan, 1.0, 1.0, 1]),
        lambda ing: ing.insert_many(np.ones((2, 2), dtype=np.int64),
                                    np.ones((2, 2))),
        lambda ing: ing.insert_many([1.5, 2.5], [1.0, 1.0]),
    ], ids=["nan", "2-d", "float-keys"])
    def test_rejected_call_keeps_buffered_items(self, reject):
        cqf = ConcurrentQuantileFilter(
            Criteria(delta=0.5, threshold=10.0, epsilon=2.0),
            num_buckets=4, vague_width=8, chunk_size=8,
        )
        ingest = cqf.ingest()
        ingest.insert_many(np.arange(5), np.full(5, 20.0))
        with pytest.raises(ParameterError):
            reject(ingest)
        assert ingest.pending == 5
        ingest.flush()
        assert cqf.items_processed == 5
        assert ingest.pending == 0


class TestValidation:
    def test_bad_chunk_size(self):
        with pytest.raises(ParameterError):
            ConcurrentQuantileFilter(CRIT, **GEOMETRY, chunk_size=0)


class TestPipelineThreadsMode:
    def test_run_delivers_exactly_the_filters_reports(self):
        # Racing commits make the fringe of the report set
        # order-sensitive (the property suite pins the exact
        # linearization semantics); what the pipeline must guarantee is
        # transport integrity — every report the shared filter emitted
        # is delivered once — and that guaranteed detections fire.
        keys, values = _trace(n=60_000)
        pipe = ParallelPipeline(
            CRIT, 4, engine="threads", chunk_items=2_048, **GEOMETRY
        )
        result = pipe.run(keys, values)
        assert result.reported_keys == pipe.filter.reported_keys
        assert set(range(20)) <= result.reported_keys  # the hot keys
        assert result.items == keys.shape[0]

        single = BatchQuantileFilter(CRIT, **GEOMETRY)
        single.process(keys, values)
        assert set(range(20)) <= single.reported_keys

    def test_merged_view_and_stats(self):
        keys, values = _trace(n=30_000)
        pipe = ParallelPipeline(
            CRIT, 2, engine="threads", chunk_items=2_048,
            collect_stats=True, **GEOMETRY,
        )
        with pipe:
            pipe.feed(keys, values)
            stats = pipe.collect_stats_view()
            result = pipe.finish()
        assert stats["qf_items_total"] >= 0
        assert result.stats["qf_items_total"] == keys.shape[0]
        assert result.stats["qf_thread_flushes_total"] > 0
        merged = restore_engine(engine_state(pipe.filter), engine="scalar")
        assert merged.reported_keys == result.reported_keys

    def test_retarget_rendezvous(self):
        keys, values = _trace(n=20_000)
        pipe = ParallelPipeline(
            CRIT, 2, engine="threads", chunk_items=1_024, **GEOMETRY
        )
        with pipe:
            pipe.feed(keys[:10_000], values[:10_000])
            new = pipe.retarget(500.0)
            assert new.threshold == 500.0
            pipe.feed(keys[10_000:], values[10_000:])
            result = pipe.finish()
        assert pipe.filter.criteria.threshold == 500.0
        assert result.items == keys.shape[0]

    def test_unsupported_feature_rejections(self):
        for kwargs in (
            dict(collect_trace=True),
            dict(collect_provenance=True),
        ):
            with pytest.raises(ParameterError):
                ParallelPipeline(
                    CRIT, 2, engine="threads", **GEOMETRY, **kwargs
                )
