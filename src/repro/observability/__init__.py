"""Runtime observability: registries, tracing, provenance, exporters.

The subsystem has two tiers, all zero-dependency:

**Metrics** (always-on, pull-model, snapshot-friendly):

* :mod:`~repro.observability.registry` — cheap monotonic
  :class:`Counter` / :class:`Gauge` metrics collected in a
  :class:`StatsRegistry`, with pull-model (callback) variants so
  instrumentation can read existing state at snapshot time instead of
  touching the insert hot path.
* :mod:`~repro.observability.histogram` — fixed log-bucket mergeable
  latency histograms (:class:`LogHistogram` / registry
  :meth:`~repro.observability.registry.StatsRegistry.histogram`).
  Snapshots explode into Prometheus-convention cumulative
  ``_bucket``/``_count``/``_sum`` counters, so cross-shard aggregation
  is an exact histogram merge under the existing sum rule.
* :mod:`~repro.observability.instrument` — :func:`observe_filter`
  attaches a registry to a ``QuantileFilter`` /
  ``BatchQuantileFilter`` / ``WindowedQuantileFilter``;
  ``ParallelPipeline(collect_stats=True)`` does the same per worker and
  aggregates shard registries master-side.
* :mod:`~repro.observability.exporters` — ``snapshot()`` dicts,
  :class:`JsonLinesEmitter`, Prometheus text rendering
  (:func:`render_prometheus`) and histogram percentile summaries
  (:func:`render_histogram_summaries`).

**Tracing & provenance** (opt-in, for debugging and audit):

* :mod:`~repro.observability.tracing` — ring-buffer-bounded
  :class:`Tracer` emitting Chrome trace-event JSON (load at
  https://ui.perfetto.dev); ``ParallelPipeline(collect_trace=True)``
  records the :data:`PIPELINE_SPANS` stages plus sampled per-item
  filter events (:func:`attach_filter_tracing`).
* :mod:`~repro.observability.provenance` — :class:`ReportProvenance`
  captures filter state at report emission
  (``collect_provenance=True``); :func:`provenance_record` renders
  JSON-ready audit records.
* :mod:`~repro.observability.logs` — :func:`configure_json_logging` /
  :class:`JsonLogFormatter` for structured pipeline lifecycle logs.

**Health & serving** (signal gauges, rule verdicts, HTTP endpoint):

* :mod:`~repro.observability.health` — :class:`HealthMonitor` maps
  snapshots + structural probes to one ``qf_health_*`` gauge per
  signal; :class:`ExceedanceDriftDetector` watches the value-vs-T
  exceedance fraction and the shadow accuracy estimator
  (:mod:`repro.detection.shadow`) scores a sampled exact slice.  The
  alert rule pack turns the gauges into ok/degraded/critical verdicts.
* :mod:`~repro.observability.server` — stdlib threaded
  :class:`HealthServer` exposing ``/metrics``, ``/healthz``,
  ``/health/shards``, ``/incidents`` and ``/alerts`` for a filter
  (:func:`serve_filter`) or pipeline (:func:`serve_pipeline`).
* :mod:`~repro.observability.recorder` — :class:`FlightRecorder`
  flight recorder retaining the recent stream window plus forensic
  snapshots in bounded memory, dumping versioned incident bundles when
  an alert rule enters firing, a worker crashes or on demand, with
  :func:`replay_bundle` deterministic bit-identical replay.

**Time series & alerting** (history, rules, operator dashboard):

* :mod:`~repro.observability.timeseries` — :class:`MetricStore`
  collects any snapshot source into bounded per-series ring buffers
  (with eviction accounting) and derives ``rate()`` / ``delta()`` /
  ``mean()`` / ``max()`` / percentiles over the retained window.
* :mod:`~repro.observability.alerts` — declarative
  :class:`AlertRule` grammar (``fn(metric[window]) > T`` with ``for:``
  durations and resolve hysteresis) evaluated by an
  :class:`AlertEngine` state machine
  (inactive→pending→firing→resolved); :func:`default_rules` is the
  shipped pack, :func:`load_rules` reads TOML/JSON packs.
* :mod:`~repro.observability.term` / :mod:`~repro.observability.
  dashboard` — flicker-free ANSI :class:`LiveScreen`, sparklines, and
  the ``repro top`` frame renderer (degrades to plain text off-TTY).

The ``repro`` CLI (:mod:`~repro.observability.cli`) exposes all of it:
``repro stats`` for metrics, ``repro trace`` for a fully instrumented
run, ``repro serve`` for the live health endpoint, ``repro top`` for
the live dashboard (or periodic snapshots) and ``repro alerts
check|list`` for the one-shot rule verdict.

>>> from repro.observability import StatsRegistry, render_prometheus
>>> reg = StatsRegistry()
>>> reg.counter("obs_demo_total", help="demo events").inc(2)
>>> print(render_prometheus(reg.snapshot(), specs=reg.specs()))
# HELP obs_demo_total demo events
# TYPE obs_demo_total counter
obs_demo_total 2

See ``docs/observability.md`` for the full metric reference, the
operational healthy/degraded reading of each signal, and the tracing &
provenance guide.
"""

from repro.observability.alerts import (
    ALERT_METRIC_HELP,
    AlertEngine,
    AlertRule,
    AlertTransition,
    default_rules,
    load_rules,
    parse_condition,
    parse_rules,
)
from repro.observability.dashboard import Dashboard
from repro.observability.term import LiveScreen, ansi_capable, sparkline
from repro.observability.timeseries import (
    STORE_METRIC_HELP,
    MetricStore,
    Series,
)
from repro.observability.registry import (
    Counter,
    Gauge,
    MetricSpec,
    StatsRegistry,
    aggregate_snapshots,
    escape_label_value,
)
from repro.observability.exporters import (
    JsonLinesEmitter,
    escape_help,
    registry_to_prometheus,
    render_histogram_summaries,
    render_prometheus,
    render_snapshot_text,
)
from repro.observability.histogram import (
    Histogram,
    LogHistogram,
    buckets_from_snapshot,
    histogram_families,
    log_bounds,
    percentiles_from_snapshot,
)
from repro.observability.instrument import (
    FILTER_METRIC_HELP,
    HISTOGRAM_METRIC_HELP,
    PROCESS_METRIC_HELP,
    observe_filter,
    observe_process,
)
from repro.observability.health import (
    HEALTH_METRIC_HELP,
    ExceedanceDriftDetector,
    HealthMonitor,
    HealthReport,
    HealthSignal,
    worst_verdict,
)
from repro.observability.logs import JsonLogFormatter, configure_json_logging
from repro.observability.provenance import ReportProvenance, provenance_record
from repro.observability.recorder import (
    RECORDER_METRIC_HELP,
    FlightRecorder,
    ReplayResult,
    list_incidents,
    load_bundle,
    observe_recorder,
    replay_bundle,
)
from repro.observability.server import (
    FilterServeSource,
    HealthServer,
    PipelineServeSource,
    serve_filter,
    serve_pipeline,
)
from repro.observability.tracing import (
    FILTER_EVENTS,
    PIPELINE_SPANS,
    FilterTraceHook,
    Tracer,
    attach_filter_tracing,
)

__all__ = [
    "ALERT_METRIC_HELP",
    "AlertEngine",
    "AlertRule",
    "AlertTransition",
    "default_rules",
    "load_rules",
    "parse_condition",
    "parse_rules",
    "Dashboard",
    "LiveScreen",
    "ansi_capable",
    "sparkline",
    "STORE_METRIC_HELP",
    "MetricStore",
    "Series",
    "PROCESS_METRIC_HELP",
    "observe_process",
    "Counter",
    "Gauge",
    "MetricSpec",
    "StatsRegistry",
    "aggregate_snapshots",
    "escape_label_value",
    "JsonLinesEmitter",
    "escape_help",
    "registry_to_prometheus",
    "render_histogram_summaries",
    "render_prometheus",
    "render_snapshot_text",
    "Histogram",
    "LogHistogram",
    "buckets_from_snapshot",
    "histogram_families",
    "log_bounds",
    "percentiles_from_snapshot",
    "FILTER_METRIC_HELP",
    "HISTOGRAM_METRIC_HELP",
    "observe_filter",
    "HEALTH_METRIC_HELP",
    "ExceedanceDriftDetector",
    "HealthMonitor",
    "HealthReport",
    "HealthSignal",
    "worst_verdict",
    "FilterServeSource",
    "HealthServer",
    "PipelineServeSource",
    "serve_filter",
    "serve_pipeline",
    "JsonLogFormatter",
    "configure_json_logging",
    "ReportProvenance",
    "provenance_record",
    "RECORDER_METRIC_HELP",
    "FlightRecorder",
    "ReplayResult",
    "list_incidents",
    "load_bundle",
    "observe_recorder",
    "replay_bundle",
    "FILTER_EVENTS",
    "PIPELINE_SPANS",
    "FilterTraceHook",
    "Tracer",
    "attach_filter_tracing",
]
