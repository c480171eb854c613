"""The public API surface: everything advertised must import and work.

Guards against export drift: names documented in docs/api.md and the
README must stay importable from the advertised locations, and
``__all__`` lists must match reality.  Every module must also have a
caller outside the test suites, so code that only its own tests use
shows up here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]

#: Every module of the package except the ``python -m repro`` entry point.
MODULES = [
    info for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
]

#: Where the callers that count live; ``tests/`` directories never count.
CALLER_ROOTS = ("src", "examples", "benchmarks", "perfbench")


@pytest.mark.parametrize("module_name", sorted(m.name for m in MODULES))
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"


def _imported_names(path: Path):
    """Every dotted name ``path`` imports, at any nesting depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_every_module_is_imported_outside_tests():
    importers = {}
    for root in CALLER_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            if "tests" in path.relative_to(REPO).parts:
                continue
            for name in _imported_names(path):
                importers.setdefault(name, set()).add(path)
    unimported = []
    for info in MODULES:
        if info.ispkg:
            continue
        parts = info.name.split(".")
        own_files = {
            REPO.joinpath("src", *parts).with_suffix(".py"),
            REPO.joinpath("src", *parts[:-1], "__init__.py"),
        }
        if not importers.get(info.name, set()) - own_files:
            unimported.append(info.name)
    assert not unimported, (
        f"imported only by tests (or by nothing): {unimported}"
    )


@pytest.mark.parametrize(
    "package_name",
    ["repro", "repro.common", "repro.sketches", "repro.quantiles",
     "repro.core", "repro.baselines", "repro.detection", "repro.streams",
     "repro.metrics", "repro.analysis", "repro.parallel",
     "repro.observability"],
)
def test_all_lists_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_top_level_quickstart_names():
    # The README quickstart imports, verbatim.
    from repro import Criteria, QuantileFilter  # noqa: F401
    from repro import BatchQuantileFilter, MultiCriteriaFilter  # noqa: F401
    from repro import WindowedQuantileFilter  # noqa: F401
    from repro import save_filter, load_filter  # noqa: F401
    from repro import compute_ground_truth, score_sets  # noqa: F401
    from repro import ShardedQuantileFilter, ParallelPipeline  # noqa: F401
    from repro import HealthMonitor, HealthServer  # noqa: F401
    from repro import ShadowAccuracyEstimator, serve_pipeline  # noqa: F401
    from repro.analysis.sizing import recommend  # noqa: F401
    from repro.detection.reports import AlertPolicy, ReportLog  # noqa: F401


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_minimal_detection_loop():
    """The README quickstart snippet, executed."""
    from repro import Criteria, QuantileFilter

    qf = QuantileFilter(
        Criteria(delta=0.95, threshold=200.0, epsilon=2.0),
        memory_bytes=64 * 1024,
    )
    stream = [("svc", 500.0)] * 10
    reports = [r for k, v in stream if (r := qf.insert(k, v))]
    assert reports and reports[0].key == "svc"
