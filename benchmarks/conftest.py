"""Shared machinery for the figure benchmarks.

Each figure bench runs the corresponding driver once under
pytest-benchmark (timing the whole experiment) and persists the result
table to ``benchmarks/results/<figure>.txt`` so the regenerated series
survive the run.  ``REPRO_BENCH_SCALE`` scales every bench's stream
length (default 20 000 items — CI-friendly; raise it to approach
paper-scale sweeps).
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.harness import FigureResult, format_rows

#: Stream length used by every figure bench.
BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "20000"))

RESULTS_DIR = Path(__file__).parent / "results"


def host_block() -> dict:
    """The host a ``BENCH_*.json`` was measured on."""
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "affinity": affinity,
        "cpus": len(affinity),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def persist(result: FigureResult, extra_sections: dict = None) -> str:
    """Write a figure's table (plus named extra tables) to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = str(result)
    for title, rows in (extra_sections or {}).items():
        text += f"\n\n-- {title} --\n{format_rows(rows)}"
    path = RESULTS_DIR / f"{result.figure.replace('+', '_')}.txt"
    path.write_text(text + "\n")
    return text


@pytest.fixture
def bench_scale() -> int:
    return BENCH_SCALE
