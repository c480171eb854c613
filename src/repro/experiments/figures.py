"""One driver per paper figure (Figs. 4-15) plus the key-result tables.

Every driver returns a :class:`~repro.experiments.harness.FigureResult`
whose records carry the same series the paper plots — algorithm,
x-axis value (memory / threshold / delta / parameter), precision,
recall, F1 and MOPS.  Scale and seeds are parameters so the benchmarks
can run small while a user can rerun paper-sized sweeps.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.criteria import Criteria
from repro.core.vectorized import BatchQuantileFilter, qf_kernel_loaded
from repro.detection.ground_truth import GroundTruthDetector
from repro.experiments.config import (
    DEFAULT_SCALE,
    PAPER,
    build_trace,
    default_criteria_for,
    memory_sweep_points,
)
from repro.experiments.harness import (
    FigureResult,
    RunRecord,
    accuracy_sweep,
    build_detector,
    ground_truth_for,
    run_detection,
)
from repro.metrics.accuracy import score_sets
from repro.streams.model import Trace

#: The SOTA comparison set used in Figs. 4-8.
SOTA_ALGORITHMS = ("quantilefilter", "squad", "sketchpolymer", "histsketch")


# ----------------------------------------------------------------------
# Figs. 4 & 5: accuracy vs memory
# ----------------------------------------------------------------------
def fig4_accuracy_internet(
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    memory_points: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = SOTA_ALGORITHMS,
) -> FigureResult:
    """Fig. 4: precision/recall/F1 vs memory on the Internet dataset."""
    return _accuracy_figure(
        "fig4", "internet", scale, seed, memory_points, algorithms
    )


def fig5_accuracy_cloud(
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    memory_points: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = SOTA_ALGORITHMS,
) -> FigureResult:
    """Fig. 5: precision/recall/F1 vs memory on the Cloud dataset."""
    return _accuracy_figure(
        "fig5", "cloud", scale, seed, memory_points, algorithms
    )


def _accuracy_figure(
    figure: str,
    dataset: str,
    scale: int,
    seed: int,
    memory_points: Optional[Sequence[int]],
    algorithms: Sequence[str],
) -> FigureResult:
    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    if memory_points is None:
        memory_points = memory_sweep_points()
    records = accuracy_sweep(
        trace, criteria, algorithms, memory_points, dataset=dataset, seed=seed
    )
    return FigureResult(
        figure=figure,
        description=f"Accuracy vs memory on {dataset} "
        f"(n={len(trace)}, keys={trace.distinct_keys}, "
        f"abnormal={trace.anomaly_fraction(criteria.threshold):.1%})",
        records=records,
    )


# ----------------------------------------------------------------------
# Fig. 6: accuracy vs threshold T
# ----------------------------------------------------------------------
def fig6_threshold_sweep(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    thresholds: Optional[Sequence[float]] = None,
    memory_points: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Fig. 6: QuantileFilter accuracy across a wide range of T.

    The paper sweeps 1-500 ms (Internet) / 1 ms-4096 ms (Cloud) at
    several memory settings and shows accuracy stays stable.
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    if thresholds is None:
        # Span the value distribution from its bulk into its tail.
        thresholds = [
            float(np.quantile(trace.values, q))
            for q in (0.30, 0.60, 0.85, 0.95, 0.99)
        ]
    if memory_points is None:
        memory_points = [1 << 10, 1 << 12, 1 << 16]
    records: List[RunRecord] = []
    for threshold in thresholds:
        criteria = default_criteria_for(dataset, threshold=threshold)
        truth = ground_truth_for(trace, criteria)
        for memory in memory_points:
            detector = build_detector("quantilefilter", criteria, memory, seed=seed)
            record = run_detection(
                detector, trace, truth,
                dataset=dataset, memory_bytes=memory, algorithm="quantilefilter",
            )
            record.extra["threshold"] = round(threshold, 3)
            record.extra["abnormal_fraction"] = round(
                trace.anomaly_fraction(threshold), 4
            )
            records.append(record)
    return FigureResult(
        figure="fig6",
        description=f"Accuracy vs threshold T on {dataset}",
        records=records,
    )


# ----------------------------------------------------------------------
# Fig. 7: accuracy vs quantile delta
# ----------------------------------------------------------------------
def fig7_delta_sweep(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    deltas: Sequence[float] = (0.5, 0.7, 0.9, 0.95, 0.99),
    memory_bytes: int = 1 << 16,
    algorithms: Sequence[str] = SOTA_ALGORITHMS,
) -> FigureResult:
    """Fig. 7: accuracy of all algorithms across queried quantiles."""
    trace = build_trace(dataset, scale=scale, seed=seed)
    records: List[RunRecord] = []
    for delta in deltas:
        criteria = default_criteria_for(dataset, delta=delta)
        truth = ground_truth_for(trace, criteria)
        for algorithm in algorithms:
            detector = build_detector(algorithm, criteria, memory_bytes, seed=seed)
            record = run_detection(
                detector, trace, truth,
                dataset=dataset, memory_bytes=memory_bytes, algorithm=algorithm,
            )
            record.extra["delta"] = delta
            records.append(record)
    return FigureResult(
        figure="fig7",
        description=f"Accuracy vs quantile delta on {dataset} "
        f"at {memory_bytes} bytes",
        records=records,
    )


# ----------------------------------------------------------------------
# Fig. 8: throughput vs memory / accuracy
# ----------------------------------------------------------------------
def fig8_throughput(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    memory_points: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = SOTA_ALGORITHMS,
) -> FigureResult:
    """Fig. 8: processing speed (MOPS) of every algorithm vs memory.

    QuantileFilter appears twice: the scalar reference engine (same
    substrate as the baselines — the fair ratio) and the numpy batch
    engine (what a production deployment of this package would use).
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    truth = ground_truth_for(trace, criteria)
    if memory_points is None:
        memory_points = [1 << 14, 1 << 16, 1 << 18]
    records: List[RunRecord] = []
    for memory in memory_points:
        for algorithm in algorithms:
            detector = build_detector(algorithm, criteria, memory, seed=seed)
            record = run_detection(
                detector, trace, truth,
                dataset=dataset, memory_bytes=memory, algorithm=algorithm,
            )
            record.extra["engine"] = "scalar"
            records.append(record)
        records.append(_batch_qf_record(trace, criteria, truth, dataset, memory, seed))
    return FigureResult(
        figure="fig8",
        description=f"Throughput (MOPS) vs memory on {dataset}",
        records=records,
    )


def _batch_qf_record(
    trace: Trace,
    criteria: Criteria,
    truth,
    dataset: str,
    memory: int,
    seed: int,
) -> RunRecord:
    engine = BatchQuantileFilter(
        criteria,
        memory,
        bucket_size=PAPER.bucket_size,
        depth=PAPER.depth,
        candidate_fraction=PAPER.candidate_fraction,
        fp_bits=PAPER.fp_bits,
        seed=seed,
    )
    # The first chunk in a process would otherwise time the one-time
    # build or load of the compiled kernel.
    qf_kernel_loaded()
    start = time.perf_counter()
    reported = engine.process(trace.keys, trace.values)
    seconds = time.perf_counter() - start
    record = RunRecord(
        algorithm="quantilefilter",
        dataset=dataset,
        memory_bytes=memory,
        actual_bytes=engine.nbytes,
        score=score_sets(reported, truth),
        seconds=seconds,
        items=len(trace),
    )
    record.extra["engine"] = "batch"
    return record


# ----------------------------------------------------------------------
# Figs. 9 & 10: parameter sweeps (array number d, block length b)
# ----------------------------------------------------------------------
def fig9_fig10_parameter_sweeps(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    depths: Sequence[int] = (1, 2, 3, 5, 8, 12, 20),
    block_lengths: Sequence[int] = (1, 2, 4, 6, 8, 12, 16),
    memory_bytes: int = 1 << 10,
) -> FigureResult:
    """Figs. 9 & 10: accuracy and throughput vs d and vs bucket size b.

    The paper finds both parameters barely move accuracy while d drags
    throughput down (more rows to touch per vague access) — hence its
    d = 3, b = 6 defaults.
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    truth = ground_truth_for(trace, criteria)
    records: List[RunRecord] = []
    for depth in depths:
        detector = build_detector(
            "quantilefilter", criteria, memory_bytes, seed=seed, depth=depth
        )
        record = run_detection(
            detector, trace, truth,
            dataset=dataset, memory_bytes=memory_bytes, algorithm="quantilefilter",
        )
        record.extra["parameter"] = "depth"
        record.extra["value"] = depth
        records.append(record)
    for block in block_lengths:
        detector = build_detector(
            "quantilefilter", criteria, memory_bytes, seed=seed, bucket_size=block
        )
        record = run_detection(
            detector, trace, truth,
            dataset=dataset, memory_bytes=memory_bytes, algorithm="quantilefilter",
        )
        record.extra["parameter"] = "block_length"
        record.extra["value"] = block
        records.append(record)
    return FigureResult(
        figure="fig9+fig10",
        description=f"Accuracy & throughput vs d and block length on {dataset}",
        records=records,
    )


# ----------------------------------------------------------------------
# Fig. 11: candidate:vague memory proportion
# ----------------------------------------------------------------------
def fig11_memory_ratio(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    candidate_fractions: Sequence[float] = (
        1 / 17, 1 / 9, 1 / 5, 1 / 3, 1 / 2, 2 / 3, 4 / 5, 8 / 9, 16 / 17
    ),
    memory_bytes: int = 1 << 10,
) -> FigureResult:
    """Fig. 11: accuracy vs the candidate:vague split (1:16 ... 16:1).

    The paper reports the split barely matters away from the extremes
    and standardises on 4:1 (fraction 0.8).
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    truth = ground_truth_for(trace, criteria)
    records: List[RunRecord] = []
    for fraction in candidate_fractions:
        detector = build_detector(
            "quantilefilter", criteria, memory_bytes,
            seed=seed, candidate_fraction=fraction,
        )
        record = run_detection(
            detector, trace, truth,
            dataset=dataset, memory_bytes=memory_bytes, algorithm="quantilefilter",
        )
        record.extra["candidate_fraction"] = round(fraction, 4)
        ratio = fraction / (1 - fraction)
        record.extra["ratio_candidate_to_vague"] = round(ratio, 3)
        records.append(record)
    return FigureResult(
        figure="fig11",
        description=f"Accuracy vs candidate:vague memory split on {dataset}",
        records=records,
    )


# ----------------------------------------------------------------------
# Fig. 12: algorithm variants (3 strategies x 2 vague backends)
# ----------------------------------------------------------------------
def fig12_variants(
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    memory_points: Optional[Sequence[int]] = None,
    include_squad: bool = True,
) -> FigureResult:
    """Fig. 12: F1 of the six QuantileFilter variants (+ SQUAD reference).

    Variants: {comparative, probabilistic, forceful} x {cs, cms}.  The
    paper finds CS variants best and nearly strategy-independent, with
    CMS degrading from comparative to forceful.
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    criteria = default_criteria_for(dataset)
    truth = ground_truth_for(trace, criteria)
    if memory_points is None:
        memory_points = memory_sweep_points(large=1 << 14, points=4)
    records: List[RunRecord] = []
    for backend in ("cs", "cms"):
        for strategy in ("comparative", "probabilistic", "forceful"):
            for memory in memory_points:
                detector = build_detector(
                    "quantilefilter", criteria, memory,
                    seed=seed, vague_backend=backend, strategy=strategy,
                )
                record = run_detection(
                    detector, trace, truth,
                    dataset=dataset, memory_bytes=memory,
                    algorithm=f"qf-{strategy[:5]}+{backend}",
                )
                record.extra["strategy"] = strategy
                record.extra["backend"] = backend
                records.append(record)
    if include_squad:
        for memory in memory_points:
            detector = build_detector("squad", criteria, memory, seed=seed)
            records.append(
                run_detection(
                    detector, trace, truth,
                    dataset=dataset, memory_bytes=memory, algorithm="squad",
                )
            )
    return FigureResult(
        figure="fig12",
        description=f"F1 of QuantileFilter variants on {dataset}",
        records=records,
    )


# ----------------------------------------------------------------------
# Figs. 13-15: dynamic modification of epsilon / delta / T
# ----------------------------------------------------------------------
def dynamic_modification_figure(
    field: str,
    modified_values: Sequence[float],
    dataset: str = "internet",
    scale: int = DEFAULT_SCALE,
    seed: int = 0,
    memory_bytes: int = 1 << 11,
    switch_fraction: float = 0.3,
) -> FigureResult:
    """Figs. 13/14/15: modify one criteria field for half the keys.

    For each candidate value of ``field`` (``"epsilon"``, ``"delta"`` or
    ``"threshold"``), half the distinct keys (by id parity) switch to
    the modified criteria ``switch_fraction`` of the way through the
    stream — in both the detector and the ground truth, per the paper's
    semantics (criteria change resets the key's value set).  Accuracy is
    then scored separately for modified and unmodified keys and compared
    with an unmodified baseline run.
    """
    trace = build_trace(dataset, scale=scale, seed=seed)
    base_criteria = default_criteria_for(dataset)
    modified_keys = {int(k) for k in np.unique(trace.keys) if int(k) % 2 == 0}
    switch_index = int(len(trace) * switch_fraction)

    records: List[RunRecord] = []
    # Baseline: no modification, scored on the same key split.
    base_truth = ground_truth_for(trace, base_criteria)
    base_detector = build_detector(
        "quantilefilter", base_criteria, memory_bytes, seed=seed
    )
    base_record = run_detection(
        base_detector, trace, base_truth,
        dataset=dataset, memory_bytes=memory_bytes, algorithm="quantilefilter",
    )
    for subset_name, subset in (
        ("modified-half", modified_keys),
        ("unmodified-half", None),
    ):
        score = _subset_score(
            base_detector.reported_keys, base_truth, modified_keys, subset_name
        )
        records.append(
            RunRecord(
                algorithm="qf-baseline",
                dataset=dataset,
                memory_bytes=memory_bytes,
                actual_bytes=base_record.actual_bytes,
                score=score,
                seconds=base_record.seconds,
                items=len(trace),
                extra={"field": field, "value": "unchanged", "subset": subset_name},
            )
        )

    for new_value in modified_values:
        new_criteria = base_criteria.with_updates(**{field: new_value})
        truth_detector = GroundTruthDetector(base_criteria)
        detector = build_detector(
            "quantilefilter", base_criteria, memory_bytes, seed=seed
        )
        qf = detector.filter
        start = time.perf_counter()
        for index, (key, value) in enumerate(trace.items()):
            if index == switch_index:
                for mkey in modified_keys:
                    qf.modify_criteria(mkey, new_criteria)
                    truth_detector.set_key_criteria(mkey, new_criteria)
            detector.process(key, value)
            truth_detector.process(key, value)
        seconds = time.perf_counter() - start
        truth = truth_detector.reported_keys
        for subset_name in ("modified-half", "unmodified-half"):
            score = _subset_score(
                detector.reported_keys, truth, modified_keys, subset_name
            )
            records.append(
                RunRecord(
                    algorithm="qf-modified",
                    dataset=dataset,
                    memory_bytes=memory_bytes,
                    actual_bytes=detector.nbytes,
                    score=score,
                    seconds=seconds,
                    items=len(trace),
                    extra={"field": field, "value": new_value, "subset": subset_name},
                )
            )
    figure = {"epsilon": "fig13", "delta": "fig14", "threshold": "fig15"}[field]
    return FigureResult(
        figure=figure,
        description=f"Dynamic modification of {field} on {dataset} "
        f"(half the keys switch at {switch_fraction:.0%} of the stream)",
        records=records,
    )


def _subset_score(reported, truth, modified_keys, subset_name):
    if subset_name == "modified-half":
        keep = lambda key: key in modified_keys  # noqa: E731
    else:
        keep = lambda key: key not in modified_keys  # noqa: E731
    return score_sets(
        {k for k in reported if keep(k)}, {k for k in truth if keep(k)}
    )


def fig13_modify_epsilon(**kwargs) -> FigureResult:
    """Fig. 13: larger epsilon helps modified keys, leaves others alone."""
    return dynamic_modification_figure("epsilon", (5.0, 15.0, 60.0, 120.0), **kwargs)


def fig14_modify_delta(**kwargs) -> FigureResult:
    """Fig. 14: smaller delta raises error on modified keys."""
    return dynamic_modification_figure("delta", (0.5, 0.7, 0.9, 0.99), **kwargs)


def fig15_modify_threshold(dataset: str = "internet", **kwargs) -> FigureResult:
    """Fig. 15: smaller T raises error on (and around) modified keys."""
    base = default_criteria_for(dataset).threshold
    values = [float(round(v, 3)) for v in (base / 8, base / 3, base, base * 3)]
    return dynamic_modification_figure("threshold", values, dataset=dataset, **kwargs)


# ----------------------------------------------------------------------
# Key-result tables (the headline 50-500x space / 10-100x speed claims)
# ----------------------------------------------------------------------
def space_saving_table(
    records: Sequence[RunRecord], f1_targets: Sequence[float] = (0.5, 0.8, 0.9)
) -> List[dict]:
    """Memory each algorithm needs to reach an F1 target, and the ratio.

    For each target, finds the smallest budget at which each algorithm's
    F1 meets it; the space-saving factor is baseline-bytes /
    QuantileFilter-bytes (the paper's Key Result 2).
    """
    by_algorithm: Dict[str, List[RunRecord]] = {}
    for record in records:
        by_algorithm.setdefault(record.algorithm, []).append(record)
    rows = []
    for target in f1_targets:
        needed = {}
        for algorithm, algo_records in by_algorithm.items():
            qualifying = [
                r.memory_bytes for r in algo_records if r.score.f1 >= target
            ]
            needed[algorithm] = min(qualifying) if qualifying else None
        qf_bytes = needed.get("quantilefilter")
        for algorithm, memory in needed.items():
            if algorithm == "quantilefilter":
                continue
            factor = (
                round(memory / qf_bytes, 1)
                if memory is not None and qf_bytes
                else None
            )
            rows.append(
                {
                    "f1_target": target,
                    "baseline": algorithm,
                    "baseline_bytes": memory,
                    "quantilefilter_bytes": qf_bytes,
                    "space_saving_factor": factor,
                }
            )
    return rows


def speed_ratio_table(
    records: Sequence[RunRecord], min_f1: float = 0.5
) -> List[dict]:
    """QuantileFilter's throughput advantage at comparable accuracy.

    Among runs with F1 >= ``min_f1``, compares each baseline's best MOPS
    with QuantileFilter's (the paper's Key Result 1, reported as a ratio
    because the substrate differs from the authors' C++ testbed).
    """
    qualified = [r for r in records if r.score.f1 >= min_f1]
    qf = [
        r for r in qualified
        if r.algorithm == "quantilefilter" and r.extra.get("engine") != "batch"
    ]
    if not qf:
        return []
    qf_mops = max(r.mops for r in qf)
    rows = []
    for algorithm in sorted({r.algorithm for r in qualified}):
        if algorithm == "quantilefilter":
            continue
        candidates = [r.mops for r in qualified if r.algorithm == algorithm]
        if not candidates:
            continue
        baseline_mops = max(candidates)
        rows.append(
            {
                "baseline": algorithm,
                "baseline_mops": round(baseline_mops, 4),
                "quantilefilter_mops": round(qf_mops, 4),
                "speedup": round(qf_mops / baseline_mops, 1)
                if baseline_mops > 0
                else None,
            }
        )
    return rows
