"""The benchmark's workloads, the stream each one feeds, and its regime.

Every workload is a registered dataset of
:mod:`repro.experiments.config` at a fixed stream length, generated from
the benchmark's ``--seed``.  The engines only ever see the generated
arrays, cut into :data:`CHUNK_ITEMS`-item chunks that the client submits
one after the other (closed loop, one client).

A workload is chosen to stress particular layers; :func:`regime_errors`
fails the benchmark when the stream leaves the regime it was chosen for
(for example, a longer ``zipf-small`` stream outgrows the candidate
slots and stops being a hot-key workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.criteria import Criteria
from repro.detection.threshold import ThresholdControlLoop, ThresholdController
from repro.experiments.config import build_trace, default_criteria_for

#: Total byte budget of every engine (the fig8 memory point).  Pipeline
#: shards get ``BUDGET_BYTES // workers`` each.
BUDGET_BYTES = 256 * 1024

#: Items per submitted chunk, the same for every engine: the batch
#: engine's internal chunk and the threads engine's flush size.
CHUNK_ITEMS = 8_192

#: Operator stack (monitored workloads): one alerting tick every this
#: many chunks.
TICK_CHUNKS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the regime bounds it must stay in."""

    name: str
    dataset: str
    items: int
    monitored: bool
    why: str
    min_hit_share: float = 0.0
    max_vague_share: float = 1.0
    min_vague_share: float = 0.0
    min_retargets: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hot-keys", "zipf-small", 500_000, False,
            "pure candidate hits: hashing, the fast tier and per-chunk "
            "engine overhead do the work",
            min_hit_share=0.95, max_vague_share=0.01,
        ),
        Workload(
            "churn", "cloud", 200_000, False,
            "most items reach the vague part: the per-item scalar tier "
            "and the vague part dominate",
            min_vague_share=0.6,
        ),
        Workload(
            "monitored-drift", "drift", 600_000, True,
            "drift trace with a threshold controller and alerting ticks "
            "beside ingest",
            min_retargets=3,
        ),
    )
}


@dataclass
class Stream:
    """A generated workload stream, pre-cut into submit chunks."""

    keys: np.ndarray
    values: np.ndarray
    criteria: Criteria
    chunks: List[Tuple[np.ndarray, np.ndarray]]

    @property
    def items(self) -> int:
        return int(self.keys.shape[0])


def make_stream(workload: Workload, seed: int,
                items: Optional[int] = None) -> Stream:
    """Generate the workload's stream from ``seed`` (never timed)."""
    trace = build_trace(workload.dataset, items or workload.items, seed)
    keys = np.ascontiguousarray(trace.keys, dtype=np.int64)
    values = np.ascontiguousarray(trace.values, dtype=np.float64)
    chunks = [
        (keys[at:at + CHUNK_ITEMS], values[at:at + CHUNK_ITEMS])
        for at in range(0, keys.shape[0], CHUNK_ITEMS)
    ]
    return Stream(keys, values, default_criteria_for(workload.dataset), chunks)


def make_control_loop(criteria: Criteria, target,
                      seed: int) -> ThresholdControlLoop:
    """The P² threshold controller every monitored engine runs.

    The settings are the experiment matrix's controlled cells (deadband
    0.05, dwell 2048, warm-up 1024, horizon 8192, every value observed).
    """
    controller = ThresholdController(
        criteria.threshold,
        criteria.delta,
        backend="p2",
        deadband=0.05,
        min_dwell_items=2_048,
        warmup_items=1_024,
        horizon_items=8_192,
        seed=seed,
    )
    return ThresholdControlLoop(controller, target)


def regime_errors(workload: Workload, hit_share: float, vague_share: float,
                  retargets: int) -> List[str]:
    """Why the stream left its workload's regime (empty when it did not)."""
    errors = []
    if hit_share < workload.min_hit_share:
        errors.append(
            f"vectorized.candidate_hit_share {hit_share:.4f} < "
            f"{workload.min_hit_share}"
        )
    if vague_share > workload.max_vague_share:
        errors.append(
            f"vectorized.vague_insert_share {vague_share:.4f} > "
            f"{workload.max_vague_share}"
        )
    if vague_share < workload.min_vague_share:
        errors.append(
            f"vectorized.vague_insert_share {vague_share:.4f} < "
            f"{workload.min_vague_share}"
        )
    if retargets < workload.min_retargets:
        errors.append(
            f"threshold.retargets {retargets} < {workload.min_retargets}"
        )
    return errors
