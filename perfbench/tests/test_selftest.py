"""Tiny-size self-test of the benchmark.

Runs ``perfbench/run.py`` end to end on short streams and checks that
every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
emitted with its unit, that all fifteen end-to-end metrics are printed
with their units, that no chunk failed (``error_rate`` is 0), and that
the traced run's trace file loads as Chrome trace JSON.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
ENGINES = ("batch", "threads", "pipeline")

#: Stream lengths small enough to be quick and large enough that each
#: workload stays in its regime (churn needs its full length for that).
TINY = [("hot-keys", 60_000), ("monitored-drift", 150_000)]


def run_bench(workload: str, trace: int, items: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--items", str(items)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], float)


#: Every end-to-end metric the benchmark prints, with its unit; the JSON
#: result carries the subset ``BENCHMARK.json`` bounds.
PRINTED = (
    [("setup_s", "s"), ("error_rate", "ratio")]
    + [(f"{e}.items_per_s", "items/s") for e in ENGINES]
    + [(f"{e}.report_delay_p{q}_ms", "ms") for e in ENGINES for q in (50, 90)]
    + [(f"{e}.f1", "ratio") for e in ENGINES]
    + [("batch.state_bytes", "B")]
)


@pytest.mark.parametrize("workload,items", TINY)
def test_end_to_end_metrics(workload, items):
    out = run_bench(workload, 0, items)
    assert out.returncode == 0, out.stderr
    check_metrics(last_json(out.stdout), SPEC["end_to_end"])
    printed = {}
    for line in out.stdout.splitlines():
        fields = line.lstrip("* ").split()
        if len(fields) == 4 and fields[3].startswith("n="):
            printed[fields[0]] = (float(fields[1]), fields[2])
    assert len(PRINTED) == 15
    for name, unit in PRINTED:
        assert printed[name][1] == unit
    assert printed["error_rate"][0] == 0.0


@pytest.mark.parametrize("workload,items", TINY)
def test_per_layer_metrics_and_trace(workload, items):
    out = run_bench(workload, 1, items)
    assert out.returncode == 0, out.stderr
    check_metrics(last_json(out.stdout), SPEC["per_layer"])
    trace_file = (
        ROOT / "perfbench" / "results" / f"{workload}-seed{SEED}.trace.json"
    )
    trace = json.loads(trace_file.read_text())
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0
    names = {event["name"] for event in events}
    assert {"vectorized", "hashing", "pipeline.feed",
            "concurrent.flush"} <= names


def test_fails_without_the_library():
    bare = ROOT / "perfbench" / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = run_bench("hot-keys", 0, 1_000, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
