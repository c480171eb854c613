"""Config-driven experiment matrix: the paper's grid as one command.

The paper's evaluation is a grid — sketch variant × workload × memory ×
threshold — and this module executes it as declared cells instead of
one-off drivers.  A matrix config (TOML or JSON) names the axes::

    [matrix]
    name = "smoke"
    seed = 0
    band_fraction = 0.25        # accuracy band around T (MagnifierSketch)
    shadow_sample_rate = 1      # 1 = exact shadow oracle

    [axes]
    algorithms = ["quantilefilter", "squad"]
    engines = ["scalar", "batch", "pipeline-shm", "threads"]  # quantilefilter only
    workloads = ["internet", "cloud", "drift", "bursty"]
    memory_bytes = [16384, 65536]
    scales = [20000]
    controllers = ["fixed", "p2"]   # adaptive-threshold axis

    [pipeline]
    shards = 2
    chunk_items = 8192

    [controller]                    # adaptive cells only
    deadband = 0.05
    min_dwell_items = 2048
    warmup_items = 1024
    window_items = 2048
    horizon_items = 8192            # 0 = cumulative (never restart)

    [gate]
    min_throughput_ratio = 0.85
    max_f1_drop = 0.05

:func:`expand_cells` turns the axes into the cell list (baseline
algorithms always run on the scalar engine — the engine axis is the
QuantileFilter implementation sweep), :func:`run_matrix` executes every
cell through the existing :mod:`repro.experiments.harness` machinery
and persists one schema-versioned record per cell via
:class:`~repro.experiments.runstore.RunStore`.

Each record scores accuracy twice: *overall* (the classic
reported-vs-truth comparison, restricted to the shadow slice when
``shadow_sample_rate > 1``) and *in a ±band around T* — keys whose
outstanding status flips between thresholds ``T·(1−β)`` and
``T·(1+β)`` are the near-boundary keys where MagnifierSketch argues
accuracy actually matters; both use
:class:`~repro.detection.shadow.ShadowAccuracyEstimator` so the same
estimator serves offline evaluation here and live monitoring in the
health layer.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.vectorized import qf_kernel_loaded
from repro.detection.shadow import ShadowAccuracyEstimator
from repro.detection.threshold import (
    ESTIMATOR_BACKENDS,
    ThresholdControlLoop,
    ThresholdController,
    p2_kernel_loaded,
)
from repro.experiments.config import DATASETS, PAPER, build_trace
from repro.experiments.harness import build_detector
from repro.experiments.runstore import (
    SCHEMA_VERSION,
    RunStore,
    config_hash,
)
from repro.metrics.accuracy import score_sets
from repro.streams.model import Trace

try:  # stdlib from Python 3.11; JSON configs work everywhere
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - version-dependent
    tomllib = None

PathLike = Union[str, Path]

#: QuantileFilter implementations the engine axis can select.
ENGINES = ("scalar", "batch", "pipeline-shm", "threads")

#: Engine-axis values that spin up a parallel deployment (worker
#: processes or updater threads); only meaningful for quantilefilter
#: cells, and excluded from the adaptive-controller cross.
_PARALLEL_ENGINES = ("pipeline-shm", "threads")

#: Baseline algorithms allowed next to "quantilefilter" on the
#: algorithm axis (all run through the scalar detector adapters).
BASELINES = ("squad", "sketchpolymer", "histsketch", "naive", "perkey-gk")

#: Threshold-control axis values: a fixed T, or one of the adaptive
#: estimator backends from :mod:`repro.detection.threshold`.
CONTROLLERS = ("fixed",) + ESTIMATOR_BACKENDS

#: Default run-directory root, relative to the repo checkout.
DEFAULT_RUNS_ROOT = "benchmarks/results/runs"

#: Chunk size for feeding the shadow estimators (vectorised path).
_SHADOW_CHUNK = 65_536

#: Items between controller observations in controlled cells — finer
#: than the measurement window so reaction lag at a regime switch
#: mis-calibrates a fraction of a window, not all of it.
_CONTROL_CADENCE = 256


# ----------------------------------------------------------------------
# config loading and expansion
# ----------------------------------------------------------------------
def load_matrix_config(path: PathLike) -> dict:
    """Load a TOML (``.toml``) or JSON matrix config file."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        if tomllib is None:
            raise ParameterError(
                f"TOML configs need Python >= 3.11 (reading {path}); "
                "use the JSON form on older interpreters"
            )
        try:
            with path.open("rb") as handle:
                return tomllib.load(handle)
        except OSError as exc:
            raise ParameterError(f"cannot read matrix config {path}: {exc}")
        except tomllib.TOMLDecodeError as exc:
            raise ParameterError(f"unparseable matrix config {path}: {exc}")
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read matrix config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"unparseable matrix config {path}: {exc}")


@dataclass(frozen=True)
class CellSpec:
    """One fully-resolved matrix cell (everything a run needs)."""

    workload: str
    algorithm: str
    engine: str
    memory_bytes: int
    scale: int
    seed: int
    threshold: float
    delta: float
    epsilon: float
    band_fraction: float
    shadow_sample_rate: int
    shards: int = 1
    chunk_items: int = 8_192
    # Adaptive-threshold control (docs/adaptive-thresholds.md).  The
    # default "fixed" keeps every pre-existing cell id and behaviour
    # unchanged; "p2"/"kll" close the loop on T with that estimator.
    controller: str = "fixed"
    controller_deadband: float = 0.05
    controller_dwell: int = 2_048
    controller_warmup: int = 1_024
    controller_window: int = 2_048
    controller_horizon: int = 8_192  # 0 = cumulative (never restart)

    @property
    def cell_id(self) -> str:
        base = (
            f"{self.workload}/{self.algorithm}/{self.engine}"
            f"/m{self.memory_bytes}/n{self.scale}"
        )
        if self.controller != "fixed":
            base += f"/c-{self.controller}"
        return base

    def criteria(self) -> Criteria:
        return Criteria(
            delta=self.delta, threshold=self.threshold, epsilon=self.epsilon
        )


def expand_cells(config: dict) -> List[CellSpec]:
    """Cross the config's axes into the concrete cell list.

    The engine axis sweeps QuantileFilter implementations only;
    baseline algorithms contribute one scalar-engine cell per
    (workload, memory, scale) point so every head-to-head happens at
    every matrix point without a meaningless baseline × engine blowup.
    """
    matrix = config.get("matrix", {})
    axes = config.get("axes", {})
    pipeline = config.get("pipeline", {})
    criteria_cfg = config.get("criteria", {})
    controller_cfg = config.get("controller", {})

    workloads = list(axes.get("workloads", ["internet"]))
    algorithms = list(axes.get("algorithms", ["quantilefilter"]))
    engines = list(axes.get("engines", ["scalar"]))
    memory_points = [int(m) for m in axes.get("memory_bytes", [1 << 16])]
    scales = [int(s) for s in axes.get("scales", [20_000])]
    controllers = list(axes.get("controllers", ["fixed"]))

    for workload in workloads:
        if workload not in DATASETS:
            raise ParameterError(
                f"unknown workload {workload!r}; choose from {sorted(DATASETS)}"
            )
    for engine in engines:
        if engine not in ENGINES:
            raise ParameterError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
    for algorithm in algorithms:
        if algorithm != "quantilefilter" and algorithm not in BASELINES:
            raise ParameterError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{('quantilefilter',) + BASELINES}"
            )
    for controller in controllers:
        if controller not in CONTROLLERS:
            raise ParameterError(
                f"unknown controller {controller!r}; choose from {CONTROLLERS}"
            )
    if "quantilefilter" not in algorithms:
        parallel = [e for e in engines if e in _PARALLEL_ENGINES]
        if parallel:
            raise ParameterError(
                f"engines {parallel} apply only to 'quantilefilter' cells; "
                "baseline algorithms always run on the scalar engine — add "
                "'quantilefilter' to axes.algorithms or drop those engines"
            )

    common = dict(
        seed=int(matrix.get("seed", 0)),
        delta=float(criteria_cfg.get("delta", PAPER.delta)),
        epsilon=float(criteria_cfg.get("epsilon", PAPER.epsilon)),
        band_fraction=float(matrix.get("band_fraction", 0.25)),
        shadow_sample_rate=int(matrix.get("shadow_sample_rate", 1)),
        shards=int(pipeline.get("shards", 2)),
        chunk_items=int(pipeline.get("chunk_items", 8_192)),
        controller_deadband=float(controller_cfg.get("deadband", 0.05)),
        controller_dwell=int(controller_cfg.get("min_dwell_items", 2_048)),
        controller_warmup=int(controller_cfg.get("warmup_items", 1_024)),
        controller_window=int(controller_cfg.get("window_items", 2_048)),
        controller_horizon=int(controller_cfg.get("horizon_items", 8_192)),
    )

    cells: List[CellSpec] = []
    for workload in workloads:
        threshold = float(
            criteria_cfg.get("threshold", DATASETS[workload].default_threshold)
        )
        for scale in scales:
            for memory in memory_points:
                point = dict(
                    workload=workload, scale=scale, memory_bytes=memory,
                    threshold=threshold, **common,
                )
                for algorithm in algorithms:
                    if algorithm == "quantilefilter":
                        for engine in engines:
                            for controller in controllers:
                                # The adaptive loop drives retarget()
                                # on in-process engines; the pipeline
                                # broadcast path has its own
                                # integration test rather than a
                                # matrix sweep, so skip that combo
                                # instead of crossing it.
                                if (controller != "fixed"
                                        and engine in _PARALLEL_ENGINES):
                                    continue
                                cells.append(CellSpec(
                                    algorithm=algorithm, engine=engine,
                                    controller=controller, **point,
                                ))
                    else:
                        # Baselines have no retarget path: fixed only.
                        cells.append(CellSpec(
                            algorithm=algorithm, engine="scalar", **point
                        ))
    return cells


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def _run_scalar(spec: CellSpec, trace: Trace):
    detector = build_detector(
        spec.algorithm, spec.criteria(), spec.memory_bytes, seed=spec.seed
    )
    process = detector.process
    start = time.perf_counter()
    for key, value in trace.items():
        process(key, value)
    seconds = time.perf_counter() - start
    return detector.reported_keys, seconds, detector.nbytes


def _run_batch(spec: CellSpec, trace: Trace):
    from repro.core.vectorized import BatchQuantileFilter

    engine = BatchQuantileFilter(
        spec.criteria(),
        spec.memory_bytes,
        bucket_size=PAPER.bucket_size,
        depth=PAPER.depth,
        candidate_fraction=PAPER.candidate_fraction,
        fp_bits=PAPER.fp_bits,
        seed=spec.seed,
    )
    start = time.perf_counter()
    reported = engine.process(trace.keys, trace.values)
    seconds = time.perf_counter() - start
    return reported, seconds, engine.nbytes


def _run_pipeline_shm(spec: CellSpec, trace: Trace):
    from repro.parallel.pipeline import ParallelPipeline

    pipeline = ParallelPipeline(
        spec.criteria(),
        spec.shards,
        engine="batch",
        memory_bytes=max(1 << 10, spec.memory_bytes // spec.shards),
        chunk_items=spec.chunk_items,
        seed=spec.seed,
        bucket_size=PAPER.bucket_size,
    )
    outcome = pipeline.run(trace.keys, trace.values)
    return outcome.reported_keys, outcome.seconds, 0


def _run_threads(spec: CellSpec, trace: Trace):
    # Unlike pipeline-shm the memory budget is NOT divided by the shard
    # count: all updater threads share one set of filter planes, so the
    # whole budget buys one full-size structure.
    from repro.parallel.pipeline import ParallelPipeline

    pipeline = ParallelPipeline(
        spec.criteria(),
        spec.shards,
        engine="threads",
        memory_bytes=max(1 << 10, spec.memory_bytes),
        chunk_items=spec.chunk_items,
        seed=spec.seed,
        bucket_size=PAPER.bucket_size,
    )
    outcome = pipeline.run(trace.keys, trace.values)
    return outcome.reported_keys, outcome.seconds, pipeline.filter.nbytes


_ENGINE_RUNNERS: Dict[str, Callable] = {
    "scalar": _run_scalar,
    "batch": _run_batch,
    "pipeline-shm": _run_pipeline_shm,
    "threads": _run_threads,
}


def _build_quantilefilter(spec: CellSpec):
    """The engine instance a controlled cell drives via ``retarget()``."""
    if spec.engine == "batch":
        from repro.core.vectorized import BatchQuantileFilter

        return BatchQuantileFilter(
            spec.criteria(),
            spec.memory_bytes,
            bucket_size=PAPER.bucket_size,
            depth=PAPER.depth,
            candidate_fraction=PAPER.candidate_fraction,
            fp_bits=PAPER.fp_bits,
            seed=spec.seed,
        )
    if spec.engine != "scalar":
        # Fail loudly rather than silently falling back to the scalar
        # engine (a hand-built CellSpec can reach here with any string).
        raise ParameterError(
            f"controlled cells drive an in-process filter; engine "
            f"{spec.engine!r} is not supported here (use 'scalar' or "
            f"'batch')"
        )
    from repro.core.quantile_filter import QuantileFilter

    return QuantileFilter(
        spec.criteria(),
        spec.memory_bytes,
        bucket_size=PAPER.bucket_size,
        depth=PAPER.depth,
        candidate_fraction=PAPER.candidate_fraction,
        fp_bits=PAPER.fp_bits,
        seed=spec.seed,
    )


def _run_controlled(spec: CellSpec, trace: Trace):
    """Run a cell with the adaptive threshold controller in the loop.

    The stream is fed in control-cadence chunks (``_CONTROL_CADENCE``
    items, capped by the measurement window): the filter processes each
    chunk against the ``T`` currently in force, then the controller
    observes the same chunk and may retarget before the next one — the
    chunk-boundary semantics every ``retarget()`` implementation
    guarantees.  Each chunk's exceedance fraction ``P(v > T)`` against
    its live ``T`` — the quantity quantile tracking actually controls —
    is then aggregated into ``controller_window``-item measurement
    windows; the calibration gate checks the post-warmup windowed rate
    stays near the target rate ``1 − q*`` under drift.  Cadence is
    deliberately finer than the window so reaction lag at a regime
    switch mis-calibrates a fraction of a window, not all of it.
    """
    controller = ThresholdController(
        initial_threshold=spec.threshold,
        target_quantile=spec.delta,
        backend=spec.controller,
        deadband=spec.controller_deadband,
        min_dwell_items=spec.controller_dwell,
        warmup_items=spec.controller_warmup,
        horizon_items=spec.controller_horizon or None,
        seed=spec.seed,
    )
    filt = _build_quantilefilter(spec)
    loop = ThresholdControlLoop(controller, filt)
    reported = set()
    chunks = []
    cadence = max(1, min(_CONTROL_CADENCE, spec.controller_window))
    scalar = spec.engine == "scalar"
    start = time.perf_counter()
    for keys, values in trace.iter_chunks(cadence):
        live_threshold = controller.threshold
        if scalar:
            insert = filt.insert
            for key, value in zip(keys.tolist(), values.tolist()):
                report = insert(key, value)
                if report is not None:
                    reported.add(report.key)
        else:
            reported.update(filt.process(keys, values))
        loop.observe_many(values)
        chunks.append((
            live_threshold,
            float(np.mean(values > live_threshold)),
            int(values.shape[0]),
        ))
    seconds = time.perf_counter() - start

    # Aggregate cadence chunks into measurement windows (exceedance is
    # the item-weighted mean of each chunk's rate against its live T).
    windows = []
    per_window = max(1, spec.controller_window // cadence)
    for at in range(0, len(chunks), per_window):
        group = chunks[at:at + per_window]
        items = sum(c[2] for c in group)
        windows.append({
            "threshold": group[-1][0],
            "exceedance": sum(c[1] * c[2] for c in group) / max(1, items),
            "items": items,
        })

    target_rate = controller.target_rate
    warmup = spec.controller_warmup
    seen = 0
    post_warmup = []
    for window in windows:
        seen += window["items"]
        if seen > warmup:
            post_warmup.append(window["exceedance"])
    mean_rate = float(np.mean(post_warmup)) if post_warmup else float("nan")
    median_rate = (
        float(np.median(post_warmup)) if post_warmup else float("nan")
    )
    tolerance = 0.25
    within = [
        rate for rate in post_warmup
        if abs(rate - target_rate) <= tolerance * target_rate
    ]
    info = {
        "backend": spec.controller,
        "target_quantile": spec.delta,
        "target_rate": target_rate,
        "initial_threshold": spec.threshold,
        "final_threshold": controller.threshold,
        "retargets": controller.retargets,
        "window_items": spec.controller_window,
        "warmup_items": warmup,
        "horizon_items": spec.controller_horizon,
        "estimator_restarts": controller.restarts,
        "deadband": spec.controller_deadband,
        "min_dwell_items": spec.controller_dwell,
        "windows": windows,
        "post_warmup_mean_rate": mean_rate,
        "post_warmup_median_rate": median_rate,
        "rate_tolerance": tolerance,
        "within_tolerance_fraction": (
            len(within) / len(post_warmup) if post_warmup else 0.0
        ),
    }
    return reported, seconds, filt.nbytes, info


def band_accuracy(
    spec: CellSpec, trace: Trace, reported,
    criteria: Optional[Criteria] = None,
) -> dict:
    """Overall and near-threshold accuracy via shadow estimators.

    Three estimators share one salted key slice (same seed ⇒ same
    sample) at thresholds ``T·(1−β)``, ``T`` and ``T·(1+β)``.  The
    *band* keys are those outstanding at the loose threshold but not at
    the strict one — exactly the keys whose verdict a small threshold
    perturbation flips — and the band score restricts both sides of the
    comparison to them.

    ``criteria`` overrides the cell's static criteria: adaptive-
    controller cells pass criteria at the *final* retargeted ``T`` so
    the band brackets the threshold actually in force, not the one the
    run started from.
    """
    criteria = criteria if criteria is not None else spec.criteria()
    beta = spec.band_fraction
    rate, seed = spec.shadow_sample_rate, spec.seed
    mid = ShadowAccuracyEstimator(criteria, sample_rate=rate, seed=seed)
    low = ShadowAccuracyEstimator(
        Criteria(criteria.delta, criteria.threshold * (1.0 - beta),
                 criteria.epsilon),
        sample_rate=rate, seed=seed,
    )
    high = ShadowAccuracyEstimator(
        Criteria(criteria.delta, criteria.threshold * (1.0 + beta),
                 criteria.epsilon),
        sample_rate=rate, seed=seed,
    )
    for keys, values in trace.iter_chunks(_SHADOW_CHUNK):
        mid.observe_batch(keys, values)
        low.observe_batch(keys, values)
        high.observe_batch(keys, values)

    reported = {int(key) for key in reported}
    overall = mid.score(reported).as_dict()
    p, r = overall["precision"], overall["recall"]
    overall["f1"] = 2.0 * p * r / (p + r) if p + r else 0.0
    band_keys = low.true_outstanding - high.true_outstanding
    sampled_reported = {key for key in reported if mid.is_sampled(key)}
    band = score_sets(
        sampled_reported & band_keys, mid.true_outstanding & band_keys
    )
    return {
        "band_fraction": beta,
        "shadow_sample_rate": rate,
        "overall": overall,
        "band": {"band_keys": len(band_keys), **band.as_dict()},
    }


def run_cell(spec: CellSpec) -> dict:
    """Execute one cell and return its (unpersisted) record."""
    trace = build_trace(spec.workload, scale=spec.scale, seed=spec.seed)
    if spec.engine not in _ENGINE_RUNNERS:
        raise ParameterError(
            f"unknown engine {spec.engine!r}; choose from {ENGINES}"
        )
    # Build or load the compiled kernels a cell runs before timing it:
    # the first cell in a process would otherwise time that one-time
    # load.  Forked pipeline workers inherit the loaded kernel.
    if spec.engine != "scalar":
        qf_kernel_loaded()
    if spec.controller == "p2":
        p2_kernel_loaded()
    controller_info = None
    score_criteria = None
    if spec.controller != "fixed":
        if spec.algorithm != "quantilefilter":
            raise ParameterError(
                f"controller {spec.controller!r} needs a retarget() path; "
                f"baseline {spec.algorithm!r} has none"
            )
        if spec.engine in _PARALLEL_ENGINES:
            raise ParameterError(
                "controlled matrix cells run on in-process engines "
                "('scalar'/'batch'); the pipeline broadcast and "
                "thread-rendezvous retarget paths are covered by their "
                "integration tests"
            )
        reported, seconds, actual_bytes, controller_info = _run_controlled(
            spec, trace
        )
        # Score the band around the T actually in force at the end.
        score_criteria = spec.criteria().with_updates(
            threshold=controller_info["final_threshold"]
        )
    else:
        runner = _ENGINE_RUNNERS[spec.engine]
        reported, seconds, actual_bytes = runner(spec, trace)
    items = len(trace)
    record = {
        "schema_version": SCHEMA_VERSION,
        "cell_id": spec.cell_id,
        "cell": asdict(spec),
        "items": items,
        "actual_bytes": int(actual_bytes),
        "reported_keys": len({int(key) for key in reported}),
        "accuracy": band_accuracy(
            spec, trace, reported, criteria=score_criteria
        ),
        "timing": {
            "wall_seconds": round(seconds, 6),
            "items_per_s": round(items / seconds, 1) if seconds > 0 else 0.0,
        },
    }
    if controller_info is not None:
        record["controller"] = controller_info
    return record


def run_matrix(
    config: dict,
    store: RunStore,
    run_id: Optional[str] = None,
    revision: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> str:
    """Execute every cell of ``config`` and persist one run.

    Returns the run id; the run directory holds the manifest (config +
    git revision + config hash) and one record per cell.
    """
    cells = expand_cells(config)
    if not cells:
        raise ParameterError("matrix config expands to zero cells")
    run_id = store.create_run(config, run_id=run_id, revision=revision)
    started = time.perf_counter()
    store.update_manifest(run_id, cells_total=len(cells))
    say = progress or (lambda _line: None)
    say(f"run {run_id}: {len(cells)} cells "
        f"(config hash {config_hash(config)})")
    for index, spec in enumerate(cells, start=1):
        record = run_cell(spec)
        record["started_unix"] = time.time()
        store.write_record(run_id, record)
        say(
            f"  [{index}/{len(cells)}] {spec.cell_id}: "
            f"f1={record['accuracy']['overall']['f1']:.3f} "
            f"band_f1={record['accuracy']['band']['f1']:.3f} "
            f"{record['timing']['items_per_s']:,.0f} items/s"
        )
    store.update_manifest(
        run_id,
        cells_completed=len(cells),
        wall_seconds=round(time.perf_counter() - started, 3),
    )
    return run_id
