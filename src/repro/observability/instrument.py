"""Attach a :class:`~repro.observability.registry.StatsRegistry` to a filter.

:func:`observe_filter` exposes a filter's built-in instrumentation
attributes (``items_processed``, ``candidate_hits``, ``swaps``, ...) as
pull-model counters and gauges.  Nothing about the insert hot path
changes: the scalar :class:`~repro.core.quantile_filter.QuantileFilter`
already maintains those attributes unconditionally, and the numpy
:class:`~repro.core.vectorized.BatchQuantileFilter` flips its
``stats_tallies`` switch on so its hot loop starts tallying (one
local-bool branch per item when the switch is off).

>>> from repro import Criteria, QuantileFilter
>>> qf = QuantileFilter(Criteria(delta=0.5, threshold=10.0, epsilon=2.0),
...                     num_buckets=8, vague_width=16)
>>> stats = observe_filter(qf)
>>> for _ in range(100):
...     _ = qf.insert("key-a", 50.0)
>>> snap = stats.snapshot()
>>> snap["qf_items_total"]
100.0
>>> snap['qf_reports_total{source="candidate"}'] >= 1.0
True
>>> snap["qf_candidate_entries"]
1.0

The same function observes a
:class:`~repro.core.windowed.WindowedQuantileFilter` (window resets and
fill level instead of the per-part event split):

>>> from repro import WindowedQuantileFilter
>>> wf = WindowedQuantileFilter(Criteria(delta=0.5, threshold=10.0,
...                                      epsilon=2.0),
...                             memory_bytes=4096, window_items=50)
>>> wstats = observe_filter(wf)
>>> for _ in range(120):
...     _ = wf.insert("key-a", 50.0)
>>> wsnap = wstats.snapshot()
>>> wsnap["qf_items_total"], wsnap["qf_window_resets_total"] >= 2.0
(120.0, True)
"""

from __future__ import annotations

import sys
import time
from typing import Mapping, Optional

from repro.common.errors import ParameterError
from repro.observability.registry import (
    SPEC_INDEX,
    MetricSpec,
    StatsRegistry,
    sample_name,
)

try:  # Unix only; Windows has no resource module.
    import resource as _resource
except ImportError:  # pragma: no cover - platform-dependent
    _resource = None

#: Help text for every filter-level metric family (also the canonical
#: list documented in ``docs/observability.md``).
FILTER_METRIC_HELP = {
    "qf_items_total": "Stream items processed by the filter.",
    "qf_reports_total": "Outstanding-key reports emitted, by detecting part.",
    "qf_reported_keys": "Distinct keys reported so far.",
    "qf_candidate_hits_total":
        "Inserts resolved exactly in the candidate part.",
    "qf_vague_inserts_total":
        "Vague-overflow events: inserts that found their bucket full "
        "and spilled into the vague sketch.",
    "qf_candidate_swaps_total":
        "Replacement elections won (candidate evictions).",
    "qf_resets_total": "Full structure resets (reset()).",
    "qf_merges_total": "merge() operations folded into this filter.",
    "qf_candidate_entries": "Occupied candidate slots.",
    "qf_candidate_occupancy": "Fraction of candidate slots occupied.",
    "qf_candidate_hit_rate":
        "Fraction of inserts resolved in the candidate part.",
    "qf_vague_saturation":
        "Fraction of vague counters pinned at their clamp value "
        "(always 0 for the batch engine's float counters).",
    "qf_estimated_bytes": "Modelled memory footprint in bytes.",
    "qf_window_resets_total": "Window clears (tumbling resets / rotations).",
    "qf_window_fill": "Progress through the current clearing period.",
    "qf_threshold": "Value threshold T currently in force.",
    "qf_retargets_total":
        "Threshold retargets applied (retarget() calls, state preserved).",
    "qf_thread_flushes_total":
        "Ingest-buffer flushes committed by updater threads, one per "
        "flush (thread-parallel engine).",
}

#: Latency-histogram families registered by the pipeline and its
#: workers.  Their exploded ``_bucket``/``_count``/``_sum`` samples are
#: plain summing counters, so cross-shard aggregation needs no new
#: rules — but exporters need the family kind to render ``# TYPE ...
#: histogram``, and snapshots cross process boundaries as bare dicts,
#: so the specs are registered at import time like the filter metrics.
HISTOGRAM_METRIC_HELP = {
    "worker_insert_seconds":
        "Per-chunk shard insert latency (batch insert time).",
    "pipeline_report_queue_delay_seconds":
        "Delay between a worker posting a chunk's reports (an empty ack "
        "too) and the master draining it.",
    "qf_lock_wait_seconds":
        "Commit-lock acquisition wait per flush "
        "(thread-parallel engine).",
}

#: Process-level families exported by :func:`observe_process` —
#: stdlib-only (``resource`` + ``gc``), documented in the metric
#: catalogue alongside the filter families.
PROCESS_METRIC_HELP = {
    "qf_process_rss_bytes":
        "Peak resident set size of this process (ru_maxrss, normalised "
        "to bytes; 0 where the resource module is unavailable).",
    "qf_uptime_seconds":
        "Seconds since this process registered its observability "
        "(monotonic clock).",
    "qf_gc_collections_total":
        "Cyclic garbage collections completed, summed across all "
        "generations.",
}

#: Gauge families that average (rather than sum) across shards.
_MEAN_GAUGES = {
    "qf_candidate_occupancy",
    "qf_candidate_hit_rate",
    "qf_vague_saturation",
    "qf_window_fill",
    # All shards retarget together, so averaging (not summing) their
    # identical thresholds reproduces the live T in aggregate views.
    "qf_threshold",
}


def _agg_for(name: str) -> str:
    return "mean" if name in _MEAN_GAUGES else "sum"


# Register every filter metric family's spec at import time.  Snapshots
# cross process boundaries as bare dicts (the pipeline workers ship
# theirs over a queue), so the aggregating side needs the kind/agg rules
# even though it never observed a filter itself.
for _name, _help in FILTER_METRIC_HELP.items():
    _kind = "counter" if _name.endswith("_total") else "gauge"
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(name=_name, kind=_kind, help=_help, agg=_agg_for(_name)),
    )
for _name, _help in HISTOGRAM_METRIC_HELP.items():
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(name=_name, kind="histogram", help=_help, agg="sum"),
    )
for _name, _help in PROCESS_METRIC_HELP.items():
    # RSS sums across processes (total footprint); uptime takes the
    # max (the oldest process); the gc counter sums like any counter.
    _kind = "counter" if _name.endswith("_total") else "gauge"
    SPEC_INDEX.setdefault(
        _name,
        MetricSpec(
            name=_name, kind=_kind, help=_help,
            agg="max" if _name == "qf_uptime_seconds" else "sum",
        ),
    )
del _name, _help, _kind


def _rss_bytes() -> float:
    """Peak RSS in bytes (0.0 when the resource module is missing).

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS — the one
    platform quirk this helper normalises.
    """
    if _resource is None:  # pragma: no cover - platform-dependent
        return 0.0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return float(peak) * scale


def observe_process(
    registry: Optional[StatsRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
) -> StatsRegistry:
    """Register process-level gauges (RSS, uptime, GC) on a registry.

    Stdlib only: peak RSS via ``resource.getrusage``, uptime from a
    monotonic anchor taken at registration, and cumulative cyclic-GC
    collections from ``gc.get_stats()``.  Idempotent per registry —
    calling again with the same labels returns it unchanged, so serve
    sources and ``observe_filter(process=True)`` can share one.
    """
    import gc

    if registry is None:
        registry = StatsRegistry()
    if sample_name("qf_process_rss_bytes", labels) in registry:
        return registry
    started = time.monotonic()
    registry.gauge_fn(
        "qf_process_rss_bytes", _rss_bytes,
        help=PROCESS_METRIC_HELP["qf_process_rss_bytes"],
        labels=labels, agg="sum",
    )
    registry.gauge_fn(
        "qf_uptime_seconds", lambda: time.monotonic() - started,
        help=PROCESS_METRIC_HELP["qf_uptime_seconds"],
        labels=labels, agg="max",
    )
    registry.counter_fn(
        "qf_gc_collections_total",
        lambda: float(sum(s["collections"] for s in gc.get_stats())),
        help=PROCESS_METRIC_HELP["qf_gc_collections_total"],
        labels=labels,
    )
    return registry


def observe_filter(
    filt,
    registry: Optional[StatsRegistry] = None,
    labels: Optional[Mapping[str, str]] = None,
    process: bool = False,
) -> StatsRegistry:
    """Register pull-model telemetry for ``filt``; returns the registry.

    Works on :class:`~repro.core.quantile_filter.QuantileFilter`,
    :class:`~repro.core.vectorized.BatchQuantileFilter` and
    :class:`~repro.core.windowed.WindowedQuantileFilter` — the metric
    set adapts to what the object actually tracks.  Every metric is
    registered eagerly (initial value 0), so a snapshot taken before
    any traffic still carries the full schema.

    Parameters
    ----------
    filt:
        The filter to observe.  Observing the same filter again returns
        its existing registry.
    registry:
        Attach to an existing registry instead of creating a fresh one.
        When several filters share one registry, give each a distinct
        ``labels`` set or the sample names collide.
    labels:
        Extra labels (e.g. ``{"shard": "3"}``) applied to every sample.
    process:
        Also register the process-level gauges
        (:func:`observe_process`) on the same registry, unlabelled —
        they describe the process, not this filter.
    """
    existing = getattr(filt, "_stats_registry", None)
    if existing is not None:
        if process:
            observe_process(existing)
        return existing
    if registry is None:
        registry = StatsRegistry()
    if sample_name("qf_items_total", labels) in registry:
        raise ParameterError(
            "this registry already observes a filter with these labels; "
            "pass a distinct labels= set per filter"
        )

    def counter(name, fn, extra_labels=None):
        merged = dict(labels or {})
        merged.update(extra_labels or {})
        registry.counter_fn(
            name, fn, help=FILTER_METRIC_HELP[name], labels=merged or None
        )

    def gauge(name, fn):
        registry.gauge_fn(
            name,
            fn,
            help=FILTER_METRIC_HELP[name],
            labels=labels,
            agg=_agg_for(name),
        )

    counter("qf_items_total", lambda: filt.items_processed)
    gauge("qf_reported_keys", lambda: len(filt.reported_keys))
    gauge("qf_estimated_bytes", lambda: filt.nbytes)
    gauge("qf_threshold", lambda: filt.criteria.threshold)
    counter("qf_retargets_total", lambda: getattr(filt, "retargets", 0))

    if hasattr(filt, "candidate_reports"):
        # Scalar QuantileFilter or BatchQuantileFilter.
        counter("qf_reports_total", lambda: filt.candidate_reports,
                {"source": "candidate"})
        counter("qf_reports_total", lambda: filt.vague_reports,
                {"source": "vague"})
        counter("qf_candidate_hits_total", lambda: filt.candidate_hits)
        counter("qf_vague_inserts_total", lambda: filt.vague_inserts)
        counter("qf_candidate_swaps_total", lambda: filt.swaps)
        counter("qf_resets_total", lambda: getattr(filt, "resets", 0))
        counter("qf_merges_total", lambda: getattr(filt, "merges", 0))
        gauge("qf_candidate_hit_rate", filt.candidate_hit_rate)
        if hasattr(filt, "candidate"):
            # Scalar filter: parts are real objects.
            gauge("qf_candidate_entries", filt.candidate.entry_count)
            gauge("qf_candidate_occupancy", filt.candidate.occupancy)
            gauge(
                "qf_vague_saturation",
                filt.vague.sketch.counters.saturation_fraction,
            )
        else:
            # Batch engine: list-backed parts, float vague counters
            # (which cannot saturate), and opt-in hot-loop tallies.
            gauge("qf_candidate_entries", filt.entry_count)
            gauge("qf_candidate_occupancy", filt.occupancy)
            gauge("qf_vague_saturation", lambda: 0.0)
            filt.stats_tallies = True
            if hasattr(filt, "thread_flushes"):
                # Thread-parallel shared-sketch engine: commit volume
                # plus the lock-wait distribution its flush path
                # records (adopted live via hist=, not copied).
                counter("qf_thread_flushes_total",
                        lambda: filt.thread_flushes)
                registry.histogram(
                    "qf_lock_wait_seconds",
                    help=HISTOGRAM_METRIC_HELP["qf_lock_wait_seconds"],
                    labels=labels,
                    hist=filt.lock_wait,
                )
    else:
        # WindowedQuantileFilter: reports are not split by part, and the
        # interesting extra signals are the clearing-policy ones.
        counter("qf_reports_total", lambda: filt.report_count)
        counter("qf_window_resets_total", lambda: filt.resets)
        gauge("qf_window_fill", lambda: filt.window_fill)

    if process:
        observe_process(registry)
    filt._stats_registry = registry
    return registry
