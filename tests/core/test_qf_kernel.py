"""The compiled Algorithm 2 loop: loading, the canary, the fallback.

Bit-exactness against the numpy path over arbitrary streams is the
property suite's job (``tests/properties/test_property_qf_kernel.py``);
these tests pin down when the kernel is used, what the canary checks,
and how the threads engine commits through it.
"""

import ctypes
import gc
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.common import native
from repro.core import vectorized
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter, qf_kernel_loaded
from repro.parallel.concurrent import ConcurrentQuantileFilter, replay_witness

needs_kernel = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=3.0)


@pytest.fixture
def unresolved(tmp_path, monkeypatch):
    """A process state in which no kernel has been resolved yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(vectorized, "_qf_compiled", vectorized._UNRESOLVED)


def stream(n=6_000, seed=3):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 400, size=n).astype(np.int64)
    values = np.where(keys < 15, 500.0, rng.uniform(0, 150, size=n))
    return keys, values


def scalar_reports(keys, values, **geometry):
    scalar = QuantileFilter(CRIT, counter_kind="float", **geometry)
    scalar.insert_many(keys, values)
    return scalar.reported_keys


def test_kernel_loads_wherever_cc_is_on_path():
    # Without this, a host with a compiler could quietly run the numpy
    # path and every compiled-path test would pass without running it.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH: the fallback is expected")
    assert qf_kernel_loaded()


@needs_kernel
def test_kernel_call_releases_the_gil():
    # A ctypes.CDLL function drops the GIL for the call; a PyDLL one
    # would serialise the threads engine's hashing and commits again.
    for routine in vectorized._qf_kernel():
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_no_compiler_warns_once_and_stays_exact(unresolved, tmp_path,
                                                monkeypatch):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    keys, values = stream()
    geometry = dict(num_buckets=16, vague_width=32, seed=4)
    batch = BatchQuantileFilter(CRIT, **geometry)
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        batch.process(keys[:3_000], values[:3_000])
        batch.process(keys[3_000:], values[3_000:])
    assert len(caught) == 1
    assert not qf_kernel_loaded()
    assert batch.reported_keys == scalar_reports(keys, values, **geometry)


def test_nothing_is_built_before_the_first_chunk(unresolved):
    filt = BatchQuantileFilter(CRIT, num_buckets=8, vague_width=8)
    assert vectorized._qf_compiled is vectorized._UNRESOLVED
    filt.process(*stream(n=10))
    assert vectorized._qf_compiled is not vectorized._UNRESOLVED


def test_concurrent_first_use_resolves_once(unresolved, monkeypatch):
    calls = []
    load = native.load

    def slow_load(source):
        calls.append(source)
        time.sleep(0.05)  # widen the window for a second resolver
        return load(source)

    monkeypatch.setattr(vectorized.native, "load", slow_load)
    keys, values = stream(n=2_000)
    geometry = dict(num_buckets=16, vague_width=32, seed=2)
    filters = [BatchQuantileFilter(CRIT, **geometry) for _ in range(6)]
    barrier = threading.Barrier(len(filters))

    def first_use(filt):
        barrier.wait(timeout=10)
        filt.process(keys, values)

    threads = [threading.Thread(target=first_use, args=(filt,))
               for filt in filters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    expected = scalar_reports(keys, values, **geometry)
    assert all(filt.reported_keys == expected for filt in filters)


@needs_kernel
def test_canary_refuses_a_divergent_kernel(unresolved, tmp_path,
                                           monkeypatch):
    source = vectorized._QF_SOURCE.read_text()
    mutants = (
        # An unstable median sort: of two equal estimates, the later
        # row's wins.  It differs from Python's list.sort only when the
        # median ties 0.0 with -0.0, which the canary streams reach.
        ("est < ests[j - 1]", "est <= ests[j - 1]", "loop diverged"),
        # Hashing that drops the top bit of every key: it changes only
        # negative int64 keys and uint64 keys of 2**63 or more, which
        # the Algorithm 2 canary streams never hold, so only the
        # hashing canary can catch it.
        ("uint64_t canon = mix64(keys[i]);",
         "uint64_t canon = mix64(keys[i] << 1 >> 1);", "hashing diverged"),
    )
    for index, (original, mutated, message) in enumerate(mutants):
        assert original in source
        mutant = tmp_path / str(index) / "qf_kernel.c"
        mutant.parent.mkdir()
        mutant.write_text(source.replace(original, mutated))
        monkeypatch.setattr(vectorized, "_QF_SOURCE", mutant)
        monkeypatch.setattr(vectorized, "_qf_compiled",
                            vectorized._UNRESOLVED)
        with pytest.warns(RuntimeWarning, match=message):
            assert not qf_kernel_loaded()


@pytest.mark.parametrize("depth", [3, 4])
def test_canary_streams_reach_every_branch(depth):
    totals = np.zeros(5, dtype=np.int64)
    for canary in vectorized._canary_streams():
        final = vectorized._canary_run(depth, *canary, None)[-1]
        # Candidate reports, vague reports, hits, vague inserts, swaps.
        totals += np.array(final[5:10])
    assert (totals > 0).all()


def test_other_strategies_take_the_numpy_path():
    for strategy in ("probabilistic", "forceful"):
        filt = BatchQuantileFilter(CRIT, num_buckets=8, vague_width=8,
                                   strategy=strategy)
        assert filt._kernel() is None


@needs_kernel
def test_filter_references_no_kernel_state():
    # The filter's footprint (perfbench's batch.state_bytes walks every
    # object it references) holds no ctypes handle or call buffer, and
    # no fast-tier scratch plane when only the kernel ran.
    filt = BatchQuantileFilter(CRIT, memory_bytes=32 * 1024, seed=1)
    filt.process(*stream())
    assert filt._scratch_pos is None
    seen, stack = set(), [filt]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (ctypes.CDLL, ctypes._CFuncPtr))
        if not isinstance(obj, np.ndarray):
            stack.extend(gc.get_referents(obj))


@needs_kernel
def test_threads_flush_hashes_once_and_commits_once(monkeypatch):
    # Each flush hashes its whole buffer with one qf_hash call and
    # commits it with one qf_process call, and logs one witness segment.
    kernel = vectorized._qf_kernel()
    hashed, committed = [], []

    def hash_chunk(*args):
        hashed.append(args[2])  # n
        return kernel.hash(*args)

    def process(*args):
        committed.append(args[3])  # n
        return kernel.process(*args)

    monkeypatch.setattr(vectorized, "_qf_kernel",
                        lambda: vectorized._QfKernel(hash_chunk, process))
    keys, values = stream(n=2_000)
    cqf = ConcurrentQuantileFilter(
        CRIT, num_buckets=8, vague_width=16, bucket_size=2, seed=5,
        flush_items=512, record_witness=True,
    )
    cqf.stats_tallies = True
    cqf.process(keys, values)
    assert hashed == committed == [512, 512, 512, 464]
    assert [len(segment.keys) for segment in cqf.witness] == committed
    assert cqf.thread_flushes == 4
    assert cqf.vague_inserts > 0  # the tiny buckets overflowed
    replayed = replay_witness(cqf.witness, cqf)
    assert replayed.reported_keys == cqf.reported_keys
    assert np.array_equal(replayed._rows, cqf._rows)
