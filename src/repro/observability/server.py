"""Stdlib HTTP endpoint serving live metrics and health verdicts.

Five routes, one tiny threaded server:

* ``GET /metrics`` — the last tick's snapshot in the Prometheus text
  exposition format (telemetry families, the ``qf_health_*`` signal
  gauges and verdict, process gauges, metric-store accounting and
  ``qf_alert_*`` states), ready for a scraper.
* ``GET /healthz`` — the alert-rule verdict as a
  :class:`~repro.observability.health.HealthReport` JSON: every health
  signal with its last value, and each firing rule named in the
  ``reasons`` of its signal.  Status 200 for ok/degraded, 503 for
  critical, so a load balancer can act on the status code alone.
* ``GET /health/shards`` — the per-shard signal values of the last
  tick (pipelines; a standalone filter serves a single entry).
* ``GET /incidents`` — manifests of the flight recorder's recent
  incident bundles, newest first (empty list when no recorder or
  incident directory is attached; see
  :mod:`repro.observability.recorder`).
* ``GET /alerts`` — the alert engine's full rule/state payload as
  JSON.

The server never touches the monitored structure's hot path, and a
scrape never changes what the next scrape reads.  A *serve source*
adapts each deployment shape to the routes, and its ``tick()`` —
called by the feeding loop, never by an HTTP thread — is the only code
that advances the verdict: it computes the
:class:`~repro.observability.health.HealthMonitor` signal gauges,
collects them with the telemetry snapshot into the
:class:`~repro.observability.timeseries.MetricStore`, evaluates the
:class:`~repro.observability.alerts.AlertEngine` (the shipped
:func:`~repro.observability.alerts.default_rules` unless ``rules`` is
given) and sends every rule entering firing to the flight recorder,
when one is attached.  The routes only read the last tick's state.

:class:`FilterServeSource` snapshots the filter's registry (pull-model
reads of plain attributes) and probes its structure;
:class:`PipelineServeSource` reads the pipeline's **cached**
``last_stats`` / ``last_per_shard_stats`` — worker stats syncs ride the
input queues and must stay on the feeding thread, so the feeder calls
``pipeline.collect_stats_view()`` before each tick — and folds the
per-shard signal gauges into the aggregate ones, worst shard winning.

>>> from repro.core.criteria import Criteria
>>> from repro.core.quantile_filter import QuantileFilter
>>> filt = QuantileFilter(Criteria(delta=0.9, threshold=50.0,
...                                epsilon=5.0), num_buckets=8,
...                       vague_width=64)
>>> source = FilterServeSource(filt)
>>> for i in range(2_000):
...     _ = filt.insert(i % 7, 10.0)
>>> source.tick()
[]
>>> lines = source.metrics_text().splitlines()
>>> "qf_health_status 0" in lines, "qf_health_report_rate 0" in lines
(True, True)
>>> report = source.report()
>>> report.verdict, report.signal("report_rate").value
('ok', 0.0)
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import urlsplit

from repro.observability.alerts import AlertEngine, default_rules
from repro.observability.exporters import render_prometheus
from repro.observability.health import (
    HealthMonitor,
    HealthReport,
    signal_values,
    verdict_rank,
)
from repro.observability.instrument import observe_filter, observe_process
from repro.observability.recorder import observe_recorder
from repro.observability.registry import StatsRegistry, aggregate_snapshots
from repro.observability.timeseries import MetricStore


class _ServeSource:
    """Tick and read plumbing shared by both serve sources.

    Subclasses set ``monitor`` and implement ``_views()`` — the
    telemetry snapshot plus ``(source, signal gauges)`` for every view
    they judge — then call :meth:`_init_source`.  A subclass that
    records sets ``recorder``, whose bundles the ``/incidents`` route
    lists.  The thread contract: :meth:`tick` belongs to the feeding
    thread; every other method is safe from HTTP threads because it
    only reads the last tick's state.
    """

    recorder = None

    def _init_source(self, rules, store) -> None:
        # Process gauges live on their own registry so they never skew
        # per-shard aggregation invariants on the filter registries.
        self.process_registry = observe_process()
        self.store = store if store is not None else MetricStore()
        self.alerts = AlertEngine(
            self.store, default_rules() if rules is None else list(rules)
        )
        self._lock = threading.Lock()
        self._snapshot: Dict[str, float] = {}
        self._signals: Dict[str, float] = {}
        self._shards: List[dict] = []

    # -- feeder-thread side -------------------------------------------
    def tick(self, now: Optional[float] = None) -> list:
        """Advance the health verdict one step (feeding thread only).

        Computes every view's signal gauges and folds them (worst view
        wins), collects them with the telemetry snapshot into the store
        — subject to the store's ``step_seconds`` throttle: a throttled
        tick changes nothing the routes serve — evaluates every rule,
        and sends the rules that entered firing to the recorder.
        Returns the state transitions taken.
        """
        snapshot, views = self._views()
        signals = aggregate_snapshots(gauges for _, gauges in views)
        if now is None:
            now = self.store.clock()
        with self._lock:
            collected = self.store.collect(
                {**snapshot, **signals, **self.process_registry.snapshot()},
                now=now,
            )
            if not collected:
                return []
            self._snapshot = snapshot
            self._signals = signals
            self._shards = [
                {"source": source, "signals": signal_values(gauges)}
                for source, gauges in views
                if source != "aggregate"
            ]
            transitions = self.alerts.evaluate(now=now)
        fired = [t for t in transitions if t.new_state == "firing"]
        if fired and self.recorder is not None:
            self.recorder.observe_alerts(fired)
        return transitions

    # -- HTTP-thread side ---------------------------------------------
    def report(self) -> HealthReport:
        """The last tick's rule verdict with every signal (``/healthz``)."""
        with self._lock:
            return self.alerts.report(signal_values(self._signals))

    def metrics_snapshot(self) -> Dict[str, float]:
        """The last tick's snapshot, signal gauges and verdict rank,
        plus process gauges, store accounting and alert states."""
        with self._lock:
            snapshot = {**self._snapshot, **self._signals}
            snapshot["qf_health_status"] = float(
                verdict_rank(self.alerts.verdict())
            )
        snapshot.update(self.process_registry.snapshot())
        snapshot.update(self.store.samples())
        snapshot.update(self.alerts.samples())
        return snapshot

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics_snapshot())

    def shard_signals(self) -> List[dict]:
        """Per-shard ``{"source", "signals"}`` of the last tick."""
        with self._lock:
            return list(self._shards)

    def alerts_payload(self) -> dict:
        """The ``/alerts`` JSON body."""
        return self.alerts.as_dict()

    def incidents(self) -> List[dict]:
        """The recorder's recent incident-bundle manifests, newest
        first; empty when nothing records."""
        if self.recorder is None:
            return []
        return self.recorder.list_incidents()


class FilterServeSource(_ServeSource):
    """Serve source for a standalone filter (any engine).

    Instruments the filter on construction when it is not already
    observed; the monitor defaults to the standard
    :meth:`~repro.observability.health.HealthMonitor.for_filter` build.
    Feed the monitor (``source.monitor.observe_batch(keys, values)``)
    alongside the filter's inserts to enable the drift and shadow
    signals — without it the structural and telemetry signals still
    work.  Drive :meth:`tick` from the feeding loop.

    With a ``recorder`` attached, every rule entering the firing state
    dumps one ``alert:<rule>`` incident bundle through it.
    """

    def __init__(
        self,
        filt,
        monitor: Optional[HealthMonitor] = None,
        registry: Optional[StatsRegistry] = None,
        recorder=None,
        rules=None,
        store=None,
    ):
        self.filt = filt
        self.registry = (
            registry
            if registry is not None
            else observe_filter(filt)
        )
        self.monitor = (
            monitor if monitor is not None else HealthMonitor.for_filter(filt)
        )
        self.recorder = recorder
        if recorder is not None:
            observe_recorder(recorder, self.registry)
        self._init_source(rules, store)

    def _views(self):
        # Deferred: core.quantile_filter imports the observability
        # package for provenance, so inspect cannot load at import time.
        from repro.core.inspect import structural_probe

        snapshot = self.registry.snapshot()
        gauges = self.monitor.samples(
            snapshot,
            probe=structural_probe(self.filt),
            reported_keys=set(self.filt.reported_keys),
        )
        return snapshot, [("filter", gauges)]


class PipelineServeSource(_ServeSource):
    """Serve source for a running :class:`~repro.parallel.pipeline.
    ParallelPipeline`.

    Reads only the pipeline's cached cross-shard views — the feeding
    thread refreshes them with ``pipeline.collect_stats_view()`` before
    each :meth:`tick`; HTTP threads must never ride the worker queues
    themselves.  The aggregate view carries the stream signals (drift,
    shadow, worker liveness); each cached worker view adds its own
    structural and telemetry signals, and the fold keeps the worst.
    """

    def __init__(
        self,
        pipeline,
        monitor: Optional[HealthMonitor] = None,
        rules=None,
        store=None,
    ):
        self.pipeline = pipeline
        self.monitor = (
            monitor
            if monitor is not None
            else HealthMonitor.for_criteria(pipeline.criteria)
        )
        # Shard views get structural/telemetry signals only: the stream
        # detectors watch the whole stream, not one shard.
        self._shard_monitor = HealthMonitor()
        self._init_source(rules, store)

    def _global_snapshot(self) -> Dict[str, float]:
        if self.pipeline.last_stats is not None:
            return dict(self.pipeline.last_stats)
        # No worker view collected yet: the master-side registry alone
        # (pull gauges over plain attributes — safe from any thread).
        return self.pipeline.stats.snapshot()

    def _views(self):
        snapshot = self._global_snapshot()
        expected = self.pipeline.num_shards if self.pipeline.running else None
        views = [("aggregate", self.monitor.samples(
            snapshot,
            reported_keys=self.pipeline.reported_keys,
            expected_workers=expected,
            source="aggregate",
        ))]
        for shard, view in enumerate(self.pipeline.last_per_shard_stats or []):
            source = f"shard-{shard}"
            views.append(
                (source, self._shard_monitor.samples(view, source=source))
            )
        return snapshot, views


class _HealthRequestHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /health/shards, /incidents, /alerts."""

    server_version = "QuantileFilterHealth/1.0"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        try:
            source = self.server.source
            if path == "/metrics":
                body = source.metrics_text() + "\n"
                self._respond(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/healthz":
                report = source.report()
                status = 503 if report.verdict == "critical" else 200
                self._respond_json(status, report.as_dict())
            elif path == "/alerts":
                self._respond_json(200, source.alerts_payload())
            elif path == "/incidents":
                manifests = source.incidents()
                self._respond_json(
                    200,
                    {"count": len(manifests), "incidents": manifests},
                )
            elif path == "/health/shards":
                self._respond_json(
                    200,
                    {
                        "verdict": source.alerts.verdict(),
                        "shards": source.shard_signals(),
                    },
                )
            else:
                self._respond_json(
                    404,
                    {
                        "error": f"unknown path {path!r}",
                        "routes": [
                            "/metrics", "/healthz", "/health/shards",
                            "/incidents", "/alerts",
                        ],
                    },
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._respond_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, status: int, obj: dict) -> None:
        self._respond(
            status, json.dumps(obj, indent=2) + "\n", "application/json"
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are frequent)."""


class HealthServer:
    """Threaded HTTP server bound to a serve source.

    ``port=0`` (the default) binds an ephemeral port; read
    :attr:`port` / :attr:`url` after :meth:`start`.  The accept loop
    and every request run on daemon threads, and :meth:`stop` joins the
    accept thread after ``shutdown()`` — no threads outlive it.
    Usable as a context manager.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0):
        self.source = source
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HealthServer":
        if self._server is not None:
            return self
        server = ThreadingHTTPServer(
            (self.host, self.port), _HealthRequestHandler
        )
        server.daemon_threads = True
        server.source = self.source
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="quantilefilter-health-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        """Base URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "HealthServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_filter(
    filt, host: str = "127.0.0.1", port: int = 0, rules=None
) -> HealthServer:
    """Tick a standalone filter's source once and serve it; returns the
    server running (keep calling ``server.source.tick()`` as the filter
    is fed)."""
    source = FilterServeSource(filt, rules=rules)
    source.tick()
    return HealthServer(source, host=host, port=port).start()


def serve_pipeline(
    pipeline, host: str = "127.0.0.1", port: int = 0, rules=None
) -> HealthServer:
    """Tick a pipeline's source once and serve it; returns the server
    running (the feeding loop keeps calling ``server.source.tick()``)."""
    source = PipelineServeSource(pipeline, rules=rules)
    source.tick()
    return HealthServer(source, host=host, port=port).start()
