"""Throughput smoke: the hot path must stay fast, run to run.

Measures items/s on the fig8 internet workload for the engine
configurations this package ships —

* ``scalar``           — reference :class:`QuantileFilter` insert loop,
* ``batch``            — batch engine with the vectorised fast tier,
* ``pipeline_shm``     — 4-shard process pipeline,
* ``threads_2w`` / ``threads_4w`` — the thread-parallel shared-sketch
  engine at 2 and 4 updater threads, head-to-head against the process
  pipeline at the same worker counts (``pipeline_shm_2w`` /
  ``pipeline_shm``) on the same stream and per-structure byte budget —

and records them in ``BENCH_throughput.json`` at the repo root, with a
``host`` block (CPU affinity set, Python and numpy versions) and
``qf_path``: whether the batch and threads engines ran the compiled
Algorithm 2 loop (``"compiled"``) or the numpy two-tier fallback
(``"python"``).

Gating: absolute items/s numbers track the host, so CI would flake on
them; the *ratios* (vectorised speedup over the scalar filter, threads
over the shm pipeline) are what the optimizations own and are
machine-portable.  The test fails when a ratio regresses more than
``REGRESSION_PCT`` below the committed baseline
(``benchmarks/baselines/throughput_baseline.json``) or drops through
its hard floor.  Per-config minimum over interleaved rounds is the
noise-robust estimator, as in the observability bench.
"""

import gc
import json
import time
from pathlib import Path

from benchmarks.conftest import BENCH_SCALE, host_block
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter, qf_kernel_loaded
from repro.experiments.config import PAPER, build_trace, default_criteria_for
from repro.parallel.pipeline import ParallelPipeline

ROUNDS = 3
REGRESSION_PCT = 15.0
#: Hard floor, below which the vectorised fast tier is considered
#: broken regardless of what the committed baseline says (the old 1.7x
#: floor over the per-item chunk loop, times that loop's measured 3.76x
#: over the scalar filter).
MIN_BATCH_SPEEDUP = 6.0
#: The threads engine's whole pitch is skipping the per-chunk
#: serialize/copy/deserialize transport tax, so at equal worker count
#: it must at least match the shm pipeline.
MIN_THREADS_SPEEDUP = 1.0
#: Per-filter / per-shard byte budget (a fig8 memory point).
MEMORY_BYTES = 1 << 18
NUM_SHARDS = 4
PIPELINE_CHUNK_ITEMS = 16_384

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_throughput.json"
BASELINE_PATH = Path(__file__).parent / "baselines" / "throughput_baseline.json"


def _paper_dims():
    return dict(
        bucket_size=PAPER.bucket_size,
        depth=PAPER.depth,
        candidate_fraction=PAPER.candidate_fraction,
        fp_bits=PAPER.fp_bits,
        seed=0,
    )


def _time_once(run):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_throughput_smoke():
    criteria = default_criteria_for("internet")
    scale = max(BENCH_SCALE, 100_000)
    trace = build_trace("internet", scale=scale, seed=0)
    pipeline_trace = build_trace("internet", scale=4 * scale, seed=0)
    dims = _paper_dims()

    def run_scalar():
        filt = QuantileFilter(
            criteria, MEMORY_BYTES, counter_kind="float", **dims
        )
        filt.insert_many(trace.keys, trace.values)
        return filt

    def run_batch():
        filt = BatchQuantileFilter(criteria, MEMORY_BYTES, **dims)
        filt.process(trace.keys, trace.values)
        return filt

    # ParallelPipeline builds its shards at the default candidate
    # fraction, depth and fingerprint width, which are the paper's.
    pipeline_dims = dict(bucket_size=dims["bucket_size"], seed=dims["seed"])

    def run_pipeline(workers, engine="batch"):
        # Threads share a single set of planes, so this is the same
        # per-structure byte budget as one shm shard.
        pipe = ParallelPipeline(
            criteria, workers, engine=engine,
            memory_bytes=MEMORY_BYTES, chunk_items=PIPELINE_CHUNK_ITEMS,
            **pipeline_dims,
        )
        return pipe.run(pipeline_trace.keys, pipeline_trace.values)

    single = {"scalar": run_scalar, "batch": run_batch}
    best = {name: float("inf") for name in single}
    reports = {}
    for name, run in single.items():  # warm every code path once
        reports[name] = run()
    for _ in range(ROUNDS):
        for name, run in single.items():
            best[name] = min(best[name], _time_once(run))

    # The optimization must not move detection output.
    assert (
        reports["batch"].reported_keys == reports["scalar"].reported_keys
    )

    # Equal-core head-to-head: threads vs the shm pipeline at the same
    # worker counts.
    parallel_best = {}
    for name, run in (
        ("pipeline_shm", lambda: run_pipeline(NUM_SHARDS)),
        ("pipeline_shm_2w", lambda: run_pipeline(2)),
        ("threads_2w", lambda: run_pipeline(2, engine="threads")),
        ("threads_4w", lambda: run_pipeline(4, engine="threads")),
    ):
        seconds = float("inf")
        for _ in range(ROUNDS):
            seconds = min(seconds, run().seconds)
        parallel_best[name] = seconds

    items_per_s = {name: scale / seconds for name, seconds in best.items()}
    for name, seconds in parallel_best.items():
        items_per_s[name] = 4 * scale / seconds
    ratios = {
        "batch_speedup_vs_scalar": (
            items_per_s["batch"] / items_per_s["scalar"]
        ),
        "threads_speedup_vs_shm": (
            items_per_s["threads_4w"] / items_per_s["pipeline_shm"]
        ),
        "threads_speedup_vs_shm_2w": (
            items_per_s["threads_2w"] / items_per_s["pipeline_shm_2w"]
        ),
    }

    result = {
        "bench": "throughput-smoke",
        "workload": "fig8-internet",
        "items": scale,
        "pipeline_items": 4 * scale,
        "memory_bytes": MEMORY_BYTES,
        "num_shards": NUM_SHARDS,
        "rounds": ROUNDS,
        "host": host_block(),
        "qf_path": "compiled" if qf_kernel_loaded() else "python",
        "items_per_s": {k: round(v, 1) for k, v in items_per_s.items()},
        "ratios": {k: round(v, 4) for k, v in ratios.items()},
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    assert ratios["batch_speedup_vs_scalar"] >= MIN_BATCH_SPEEDUP, (
        f"vectorised fast tier only {ratios['batch_speedup_vs_scalar']:.2f}x "
        f"over the scalar filter (floor {MIN_BATCH_SPEEDUP}x)"
    )
    assert ratios["threads_speedup_vs_shm"] >= MIN_THREADS_SPEEDUP, (
        f"threads engine only {ratios['threads_speedup_vs_shm']:.2f}x over "
        f"the shm pipeline at 4 workers (floor {MIN_THREADS_SPEEDUP}x): "
        "the zero-transport commit path is no longer paying for itself"
    )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        for name, value in ratios.items():
            reference = baseline["ratios"][name]
            floor = reference * (1.0 - REGRESSION_PCT / 100.0)
            assert value >= floor, (
                f"{name} regressed: {value:.3f} vs committed baseline "
                f"{reference:.3f} (>{REGRESSION_PCT}% drop); if the "
                f"change is intentional, refresh {BASELINE_PATH}"
            )
