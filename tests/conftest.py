"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest
from hypothesis import settings

from repro.core import vectorized
from repro.core.criteria import Criteria
from repro.detection import threshold

# Pinned profile for CI: derandomized (the same example sequence on
# every run and every Python version) with a trimmed example budget.
# Locally the default profile keeps hypothesis exploring fresh seeds.
settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=30,
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="module")
def numpy_qf_path():
    """Force the batch engine's numpy two-tier path for a whole module.

    The compiled Algorithm 2 loop runs by default wherever it loads;
    a module that uses this fixture runs its tests on the numpy path
    instead (the path hosts without a C compiler take).  Module scope
    lets hypothesis tests use it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_qf_kernel", lambda: None)
        yield


@pytest.fixture
def kernels_resolved_at(monkeypatch):
    """Watch which compiled kernels a call finds already resolved.

    The test starts with both kernels (``"qf"``: ``qf_kernel.c``,
    ``"p2"``: ``p2_kernel.c``) unresolved, as a fresh process has them;
    resolving one again hands back what this process resolved before,
    so nothing is rebuilt.  ``kernels_resolved_at(cls, name)`` wraps
    ``cls.name`` and returns a list to which every call appends the set
    of kernels resolved when it began.
    """
    kernels = {
        "qf": (vectorized, "_qf_compiled", "_load_qf_kernel",
               vectorized._qf_kernel()),
        "p2": (threshold, "_p2_compiled", "_load_p2_kernel",
               threshold._p2_kernel()),
    }
    for module, state, loader, kernel in kernels.values():
        monkeypatch.setattr(module, loader, lambda kernel=kernel: kernel)
        monkeypatch.setattr(module, state, module._UNRESOLVED)

    def watch(cls, name):
        calls = []
        method = getattr(cls, name)

        def watched(*args, **kwargs):
            calls.append({
                kind for kind, (module, state, _, _) in kernels.items()
                if getattr(module, state) is not module._UNRESOLVED
            })
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, watched)
        return calls

    return watch


@pytest.fixture
def default_criteria() -> Criteria:
    """The paper's default evaluation criteria with a round threshold."""
    return Criteria(delta=0.95, threshold=200.0, epsilon=30.0)


@pytest.fixture
def loose_criteria() -> Criteria:
    """Low-epsilon criteria that trigger quickly (handy in unit tests)."""
    return Criteria(delta=0.9, threshold=100.0, epsilon=2.0)


@pytest.fixture
def py_random() -> random.Random:
    """A seeded stdlib RNG."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def np_random() -> np.random.Generator:
    """A seeded numpy RNG."""
    return np.random.default_rng(0xC0FFEE)


def make_two_class_stream(
    rng: random.Random,
    n_items: int = 20_000,
    n_keys: int = 200,
    n_hot: int = 10,
    hot_value: float = 500.0,
    cold_max: float = 150.0,
):
    """A stream where keys < ``n_hot`` always exceed any mid threshold.

    The canonical unit-test workload: keys 0..n_hot-1 are unambiguously
    outstanding, the rest unambiguously not.
    """
    items = []
    for _ in range(n_items):
        key = rng.randrange(n_keys)
        value = hot_value if key < n_hot else rng.uniform(0.0, cold_max)
        items.append((key, value))
    return items
