"""The compiled P² loop: loading, the canary, the fallback, the estimate.

Bit-exactness against ``update`` over arbitrary inputs is the property
suite's job (``tests/properties/test_property_p2_kernel.py``); these
tests pin down when the kernel is used and that the estimate it keeps
holds the tail share it promises.
"""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.common import native
from repro.common.errors import ParameterError
from repro.detection import threshold
from repro.detection.threshold import P2QuantileEstimator, ThresholdController


@pytest.fixture
def unresolved(tmp_path, monkeypatch):
    """A process state in which no kernel has been resolved yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(threshold, "_p2_compiled", threshold._UNRESOLVED)


@pytest.fixture(params=["compiled", "python"])
def p2_path(request, monkeypatch):
    """Run the test on the compiled loop and on the forced fallback."""
    if request.param == "python":
        monkeypatch.setattr(threshold, "_p2_kernel", lambda: None)
    elif not threshold.p2_kernel_loaded():
        pytest.skip("the C kernel does not load on this host")
    return request.param


def test_kernel_loads_wherever_cc_is_on_path():
    # Without this, a host with a compiler could quietly run the Python
    # fallback and every compiled-path test would skip.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH: the fallback is expected")
    assert threshold.p2_kernel_loaded()


def test_no_compiler_warns_once_and_stays_exact(unresolved, tmp_path,
                                                monkeypatch):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    values = np.random.default_rng(5).normal(size=2_000)
    reference, batched = P2QuantileEstimator(0.9), P2QuantileEstimator(0.9)
    for value in values.tolist():
        reference.update(value)
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        batched.update_many(values[:1_000])
        batched.update_many(values[1_000:])
    assert len(caught) == 1
    assert not threshold.p2_kernel_loaded()
    assert batched._heights == reference._heights
    assert batched._positions == reference._positions


def test_nothing_is_built_before_the_first_update_many(unresolved):
    controller = ThresholdController(1.0, 0.9, backend="p2")
    for value in range(10):
        controller.observe(float(value))
    assert threshold._p2_compiled is threshold._UNRESOLVED
    controller.observe_many([1.0, 2.0])
    assert threshold._p2_compiled is not threshold._UNRESOLVED


def test_concurrent_first_use_resolves_once(unresolved, monkeypatch):
    calls = []
    load = native.load

    def slow_load(source):
        calls.append(source)
        time.sleep(0.05)  # widen the window for a second resolver
        return load(source)

    monkeypatch.setattr(threshold.native, "load", slow_load)
    values = np.random.default_rng(3).uniform(size=500)
    reference = P2QuantileEstimator(0.5)
    for value in values.tolist():
        reference.update(value)
    estimators = [P2QuantileEstimator(0.5) for _ in range(8)]
    barrier = threading.Barrier(len(estimators))

    def first_use(estimator):
        barrier.wait(timeout=10)
        estimator.update_many(values)

    threads = [threading.Thread(target=first_use, args=(estimator,))
               for estimator in estimators]
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
    assert all(estimator._heights[:] == reference._heights[:]
               for estimator in estimators)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_canary_refuses_a_divergent_kernel(unresolved, tmp_path,
                                           monkeypatch):
    # Fusing the parabolic step into one fma rounds once where Python
    # rounds twice: the kind of drift -ffp-contract=off rules out.
    source = threshold._P2_SOURCE.read_text()
    fused = source.replace(
        "return heights[marker] + step / (above - below) * (",
        "return __builtin_fma(step / (above - below), (",
    ).replace(
        "        / (at - below));\n}",
        "        / (at - below)), heights[marker]);\n}",
    )
    assert fused != source
    mutant = tmp_path / "p2_kernel.c"
    mutant.write_text(fused)
    monkeypatch.setattr(threshold, "_P2_SOURCE", mutant)
    with pytest.warns(RuntimeWarning, match="diverged"):
        assert not threshold.p2_kernel_loaded()


def test_update_many_rejects_two_dimensional_input():
    with pytest.raises(ParameterError, match="one-dimensional"):
        P2QuantileEstimator(0.5).update_many(np.zeros((4, 4)))


def test_update_many_accepts_lists_and_iterables(p2_path):
    reference = P2QuantileEstimator(0.5)
    for value in range(50):
        reference.update(float(value))
    from_list, from_iter = P2QuantileEstimator(0.5), P2QuantileEstimator(0.5)
    from_list.update_many([float(value) for value in range(50)])
    from_iter.update_many(float(value) for value in range(50))
    assert (from_list._heights[:] == from_iter._heights[:]
            == reference._heights[:])


@pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
def test_tail_share_above_the_running_estimate(p2_path, q):
    # The share of each chunk above the estimate read before it is the
    # exceedance rate a controller steering T to that estimate holds.
    chunk, chunks, warmup = 8_192, 24, 2
    values = np.random.default_rng(11).lognormal(
        mean=3.0, sigma=1.0, size=chunk * chunks
    )
    controller = ThresholdController(1.0, q, backend="p2")
    above = seen = 0
    for index in range(chunks):
        part = values[index * chunk:(index + 1) * chunk]
        estimate = controller.estimator.quantile()
        if index >= warmup:
            above += int(np.count_nonzero(part > estimate))
            seen += len(part)
        controller.observe_many(part)
    assert above / seen == pytest.approx(1.0 - q, rel=0.10)
