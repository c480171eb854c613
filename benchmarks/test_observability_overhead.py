"""Tracing overhead: the disabled instrumentation must cost nothing.

PR 3 added event-hook call sites to the scalar filter's report path
(candidate election, replacement, emission) plus optional provenance
capture.  All of them hide behind one ``is not None`` / bool predicate
per site, so with tracing and provenance off the insert loop must run
at the untraced baseline's speed — this bench holds that to the ≤3%
budget from the issue and records the numbers in
``BENCH_observability.json`` at the repo root.

Methodology: the same stream is inserted under four configurations —

* ``baseline``   — filter built with the plain constructor (the
  untraced default: ``trace_hook=None``, no provenance);
* ``disabled``   — every observability kwarg passed explicitly off
  (identical code path; measures that the predicates stay in noise);
* ``traced``     — sampling tracer attached (``sample_every=64``) and
  provenance on, for the informational cost of full instrumentation;
* ``health``     — stats registry (``observe_filter``) plus a
  :class:`~repro.observability.health.HealthMonitor` in its disabled
  mode (shadow sampler off) attached, with the signal gauges computed
  once after the run.  Both are pull-model — they read filter state at
  snapshot time — so the insert loop must stay at baseline speed.

PR 8's flight recorder taps the insert path at **chunk** granularity,
so its budget is held against a chunk-fed control pair:

* ``chunked``    — the same stream fed through ``insert_many`` in
  4096-item strides (the recorder-free chunk path);
* ``recorded``   — the identical strides fed through
  :meth:`~repro.observability.recorder.FlightRecorder.feed`, which
  captures each chunk (ring of 8) and applies it via the same
  ``insert_many``.  ``recorded_overhead_pct`` (recorded vs chunked) is
  gated at the same ≤3% budget.

PR 10's time-series collector and alert engine also run at chunk
cadence (the serving loop's ``tick()``), so they gate against the same
control:

* ``alerted``    — the identical strides, each followed by one full
  alerting tick: registry snapshot → ``MetricStore.collect`` →
  ``AlertEngine.evaluate`` over the shipped default rule pack.
  ``alerts_overhead_pct`` (alerted vs chunked) is gated at the same
  ≤3% budget.

Rounds interleave configurations; the recorded ``*_mops`` figures use
the per-config *minimum* wall time (the standard "how fast can this
code path go" estimator), but every **gated** comparison is scored as
the *median of adjacent paired ratios* — each gated run timed right
next to its baseline run, with the pair order alternating — because on
a loaded single-core runner a ratio of independent minima flips on one
interrupted sample while paired medians cancel the drift.
"""

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_SCALE, host_block
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.observability.tracing import Tracer, attach_filter_tracing

ROUNDS = 7
OVERHEAD_BUDGET_PCT = 3.0
#: Chunk stride for the recorder pair (a typical pipeline chunk size).
RECORD_STRIDE = 4_096
#: Retained chunks in the benchmarked recorder ring.
RECORD_MAX_CHUNKS = 8
#: Extra back-to-back rounds for the chunked/recorded pair: the true
#: recorder cost is well under 1%, so the gate needs tighter minima
#: than the shared rotation alone gives on a noisy runner.  Alternating
#: the pair order each round cancels slow machine drift.
PAIR_ROUNDS = 13
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_observability.json"

CRIT = Criteria(delta=0.9, threshold=100.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=256, bucket_size=4, vague_width=512,
                counter_kind="float", seed=9)


def make_stream(n, seed=17):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 500, size=n).tolist()
    values = np.where(
        rng.random(n) < 0.1, 500.0, rng.uniform(0.0, 100.0, n)
    ).tolist()
    return keys, values


def _build(config):
    if config == "baseline":
        return QuantileFilter(CRIT, **GEOMETRY)
    if config == "disabled":
        return QuantileFilter(
            CRIT, collect_provenance=False, trace_hook=None, **GEOMETRY
        )
    if config == "health":
        from repro.observability.health import HealthMonitor
        from repro.observability.instrument import observe_filter

        filt = QuantileFilter(CRIT, **GEOMETRY)
        registry = observe_filter(filt)
        # Disabled mode: no shadow sampler, nothing fed per item; the
        # monitor and registry only pull state at report time.
        filt._bench_monitor = HealthMonitor.for_filter(
            filt, shadow_sample_rate=None
        )
        filt._bench_registry = registry
        return filt
    filt = QuantileFilter(CRIT, collect_provenance=True, **GEOMETRY)
    attach_filter_tracing(filt, Tracer(), sample_every=64)
    return filt


#: Timed repeats per sample (fresh filter each); the per-sample MIN
#: halves each sample's exposure to scheduler interrupts on 1-core
#: runners, where a single 0.2s window can eat several percent.
TIMING_REPEATS = 2


def _time_chunked_loop(config, keys, values):
    """Chunk-fed controls: ``chunked`` vs ``recorded`` / ``alerted``."""
    elapsed = float("inf")
    for _ in range(TIMING_REPEATS):
        filt = QuantileFilter(CRIT, **GEOMETRY)
        tick = None
        if config == "recorded":
            from repro.observability.recorder import FlightRecorder

            feed = FlightRecorder(filt, max_chunks=RECORD_MAX_CHUNKS).feed
        elif config == "alerted":
            from repro.observability.alerts import (
                AlertEngine,
                default_rules,
            )
            from repro.observability.instrument import observe_filter
            from repro.observability.timeseries import MetricStore

            registry = observe_filter(filt)
            clock = {"t": 0.0}
            store = MetricStore(clock=lambda: clock["t"])
            engine = AlertEngine(store, default_rules())
            feed = filt.insert_many

            def tick():
                # One serving-loop alerting step per stride, on a
                # synthetic clock so windows span the run.
                clock["t"] += 1.0
                store.collect(registry.snapshot(), now=clock["t"])
                engine.evaluate(now=clock["t"])
        else:
            feed = filt.insert_many
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for begin in range(0, len(keys), RECORD_STRIDE):
                feed(
                    keys[begin:begin + RECORD_STRIDE],
                    values[begin:begin + RECORD_STRIDE],
                )
                if tick is not None:
                    tick()
            elapsed = min(elapsed, time.perf_counter() - start)
        finally:
            gc.enable()
        assert filt.items_processed == len(keys)
    return elapsed, filt


def _time_insert_loop(config, keys, values):
    elapsed = float("inf")
    for _ in range(TIMING_REPEATS):
        filt = _build(config)
        insert = filt.insert
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for key, value in zip(keys, values):
                insert(key, value)
            elapsed = min(elapsed, time.perf_counter() - start)
        finally:
            gc.enable()
        assert filt.items_processed == len(keys)
    return elapsed, filt


def test_disabled_tracing_overhead_within_budget(bench_scale):
    keys, values = make_stream(max(bench_scale, 50_000))
    timings = {"baseline": [], "disabled": [], "traced": [], "health": [],
               "chunked": [], "recorded": [], "alerted": []}
    reported = {}
    per_item = ("baseline", "disabled", "traced", "health")
    for config in timings:  # warm-up every code path once
        if config in per_item:
            _time_insert_loop(config, keys, values)
        else:
            _time_chunked_loop(config, keys, values)
    order = list(timings)
    for round_no in range(ROUNDS):
        # Rotate the order so no config systematically inherits a
        # warmer (or dirtier) process state from its predecessor.
        shift = round_no % len(order)
        for config in order[shift:] + order[:shift]:
            if config in per_item:
                elapsed, filt = _time_insert_loop(config, keys, values)
            else:
                elapsed, filt = _time_chunked_loop(config, keys, values)
            timings[config].append(elapsed)
            reported[config] = filt.report_count
            if config == "health":
                # The signal computation itself runs off the timed path.
                samples = filt._bench_monitor.samples(
                    filt._bench_registry.snapshot()
                )
                assert "qf_health_candidate_occupancy" in samples

    # Every gate uses the MEDIAN of adjacent paired ratios rather than
    # a ratio of per-config minima: the true overheads are well under
    # 1%, so on a loaded 1-core runner a single lucky (or interrupted)
    # round for either side dominates a min-based ratio and flips the
    # verdict, while pairing each gated run against its baseline run
    # right next to it — alternating the order — cancels machine drift.
    def paired_overhead_pct(config, base, timer):
        ratios = []
        for round_no in range(PAIR_ROUNDS):
            pair = (base, config) if round_no % 2 == 0 else (config, base)
            times = {}
            for name in pair:
                elapsed, filt = timer(name, keys, values)
                timings[name].append(elapsed)
                reported[name] = filt.report_count
                times[name] = elapsed
            ratios.append(times[config] / times[base] - 1.0)
        return statistics.median(ratios) * 100.0

    gated = {
        "disabled": paired_overhead_pct(
            "disabled", "baseline", _time_insert_loop
        ),
        "health": paired_overhead_pct(
            "health", "baseline", _time_insert_loop
        ),
        "recorded": paired_overhead_pct(
            "recorded", "chunked", _time_chunked_loop
        ),
        "alerted": paired_overhead_pct(
            "alerted", "chunked", _time_chunked_loop
        ),
    }

    # Instrumentation must never change detection behaviour.
    assert reported["disabled"] == reported["baseline"]
    assert reported["traced"] == reported["baseline"]
    assert reported["health"] == reported["baseline"]
    # insert_many is semantically identical to the per-item loop, and
    # recording must not perturb it.
    assert reported["chunked"] == reported["baseline"]
    assert reported["recorded"] == reported["chunked"]
    assert reported["alerted"] == reported["chunked"]

    best = {config: min(times) for config, times in timings.items()}
    items = len(keys)
    mops = {config: items / seconds / 1e6 for config, seconds in best.items()}

    def overhead_pct(config, base="baseline"):
        return (best[config] / best[base] - 1.0) * 100.0

    result = {
        "bench": "observability-overhead",
        "host": host_block(),
        "items": items,
        "rounds": ROUNDS,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "record_stride": RECORD_STRIDE,
        "record_max_chunks": RECORD_MAX_CHUNKS,
        "pair_rounds": ROUNDS + PAIR_ROUNDS,
        "baseline_mops": round(mops["baseline"], 4),
        "disabled_mops": round(mops["disabled"], 4),
        "traced_mops": round(mops["traced"], 4),
        "health_mops": round(mops["health"], 4),
        "chunked_mops": round(mops["chunked"], 4),
        "recorded_mops": round(mops["recorded"], 4),
        "alerted_mops": round(mops["alerted"], 4),
        "disabled_overhead_pct": round(gated["disabled"], 3),
        "traced_overhead_pct": round(overhead_pct("traced"), 3),
        "health_overhead_pct": round(gated["health"], 3),
        "recorded_overhead_pct": round(gated["recorded"], 3),
        "alerts_overhead_pct": round(gated["alerted"], 3),
        "best_seconds": {k: round(v, 6) for k, v in best.items()},
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    assert gated["disabled"] <= OVERHEAD_BUDGET_PCT, (
        f"tracing-disabled insert loop is {gated['disabled']:.2f}% "
        f"slower than the untraced baseline (paired-median over "
        f"{PAIR_ROUNDS} adjacent rounds; budget {OVERHEAD_BUDGET_PCT}%); "
        f"see {RESULT_PATH}"
    )
    assert gated["health"] <= OVERHEAD_BUDGET_PCT, (
        f"health-monitored (shadow off) insert loop is "
        f"{gated['health']:.2f}% slower than the untraced baseline "
        f"(paired-median over {PAIR_ROUNDS} adjacent rounds; budget "
        f"{OVERHEAD_BUDGET_PCT}%); see {RESULT_PATH}"
    )
    assert gated["recorded"] <= OVERHEAD_BUDGET_PCT, (
        f"flight-recorded chunk feed is {gated['recorded']:.2f}% "
        f"slower than the recorder-free chunk feed (paired-median over "
        f"{PAIR_ROUNDS} adjacent rounds; budget {OVERHEAD_BUDGET_PCT}%); "
        f"see {RESULT_PATH}"
    )
    assert gated["alerted"] <= OVERHEAD_BUDGET_PCT, (
        f"per-stride metric collection + default-rule evaluation is "
        f"{gated['alerted']:.2f}% slower than the alert-free chunk "
        f"feed (paired-median over {PAIR_ROUNDS} adjacent rounds; "
        f"budget {OVERHEAD_BUDGET_PCT}%); see {RESULT_PATH}"
    )
