"""The ``repro`` operations CLI: ``stats``, ``trace``, ``serve``,
``top``, ``alerts``, ``record`` and ``matrix``.

``repro matrix run|report|gate`` (the config-driven experiment matrix
with persisted runs, trend reports and regression gates) is documented
in :mod:`repro.experiments.cli`; this module forwards it there.

All subcommands drive a live :class:`~repro.parallel.pipeline.
ParallelPipeline` (workers, bounded queues, per-worker registries) over
a registered dataset and export its telemetry:

* ``repro stats`` — run the stream to completion and print one final
  aggregated snapshot (Prometheus text by default).
* ``repro trace`` — run a fully instrumented pipeline (tracing +
  report provenance + stats) and write ``<out>.trace.json`` (Chrome
  trace-event JSON, load it at https://ui.perfetto.dev) plus
  ``<out>.provenance.json`` (one record per report, with the filter
  state captured at emission).  Lifecycle logs go to stderr as JSON
  lines; latency-histogram summaries print at the end.
* ``repro serve`` — run the pipeline while a threaded HTTP server
  exposes ``/metrics``, ``/healthz`` and ``/health/shards`` live (see
  :mod:`repro.observability.server`); ``--linger`` keeps serving the
  final snapshot after the stream ends.
* ``repro top`` — live operator dashboard: throughput/report-rate
  sparklines, the threshold T, the rule verdict and active alert
  states, redrawn in place on an ANSI terminal (see
  :mod:`repro.observability.term`) and degraded to plain appended
  frames when stdout is not a TTY or ``TERM=dumb``; ``--once`` prints
  a single final frame.  ``--format json`` instead appends one JSON
  snapshot per ``--every`` stride (the format to pipe into a file and
  tail), and ``--format prom`` prints Prometheus snapshots, redrawn in
  place on a TTY.
* ``repro alerts check|list`` — one-shot alert evaluation over a
  dataset run and a rule-pack linter/printer.  ``check`` prints the
  final rule verdict (a :class:`~repro.observability.health.
  HealthReport` with every signal value), the rule transitions and
  the firing rules; ``--format json`` prints the same as one object
  and ``--format prom`` the ``qf_health_*`` gauges.  In every format
  the exit code is the verdict rank — 0 ok, 1 degraded, 2 critical —
  and 3 for a bad ``--every`` or an unreadable rule pack.  ``list``
  prints every rule; its ``--format json`` is a loadable
  ``{"rule": [...]}`` pack.  Rules default to the shipped pack
  (:func:`repro.observability.alerts.default_rules`); ``--rules``
  loads a TOML/JSON pack.
* ``repro record dump|replay|list`` — flight-recorder forensics (see
  :mod:`repro.observability.recorder`): ``dump`` runs a recorded
  stream and writes an incident bundle, ``replay`` re-runs a bundle
  and exits 1 unless it reproduces bit-identically, ``list`` prints
  the bundle manifests under an incident directory.

``serve``, ``top`` and ``alerts check`` share one feed loop: feed a
stride, refresh the pipeline's stats view, and ``tick()`` the
:class:`~repro.observability.server.PipelineServeSource` — the one
call that advances the verdict.

Examples::

    repro stats --dataset cloud --shards 4
    repro top --every 8 --format json > stats.jsonl
    repro trace --scale 20000 --out /tmp/run1
    repro serve --port 9133 --linger 60
    repro top --dataset drift --throttle 0.2
    repro alerts check --dataset drift --format json
    repro record dump --dataset drift --dir /tmp/incidents
    repro record replay /tmp/incidents/incident-1700000000000.json.gz
    python -m repro stats          # equivalent entry point

The parser is plain argparse:

>>> build_parser().parse_args(["stats", "--shards", "3"]).shards
3
>>> build_parser().parse_args(["top", "--format", "json"]).format
'json'
>>> build_parser().parse_args(["trace", "--out", "/tmp/t"]).out
'/tmp/t'
>>> build_parser().parse_args(["serve", "--port", "9133"]).port
9133
>>> build_parser().parse_args(["top", "--once"]).once
True
>>> build_alerts_parser().parse_args(["check", "--tick", "10"]).tick
10.0
>>> build_alerts_parser().parse_args(["check", "--format", "prom"]).format
'prom'
>>> build_alerts_parser().parse_args(["list"]).format
'text'
>>> build_record_parser().parse_args(["dump", "--engine", "batch"]).engine
'batch'
>>> build_record_parser().parse_args(["replay", "/tmp/b.json.gz"]).bundle
'/tmp/b.json.gz'
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import Callable, Dict, Optional

from repro.observability.exporters import (
    render_histogram_summaries,
    render_prometheus,
    render_snapshot_text,
)

#: Default byte budget per shard for the CLI's demonstration runs.
DEFAULT_MEMORY_BYTES = 64 * 1024


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """The dataset and pipeline shape every pipeline command takes."""
    parser.add_argument(
        "--dataset", default="internet",
        help="registered dataset name (internet/cloud/drift/zipf-*)",
    )
    parser.add_argument(
        "--scale", type=int, default=50_000, help="stream length",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="worker process count",
    )
    parser.add_argument(
        "--memory-bytes", type=int, default=DEFAULT_MEMORY_BYTES,
        help="per-shard byte budget",
    )
    parser.add_argument(
        "--chunk-items", type=int, default=8_192,
        help="items per pipeline chunk",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_feed_args(parser: argparse.ArgumentParser, between: str,
                   throttle: bool = True) -> None:
    """``--every`` (and ``--throttle``) for commands on the feed loop."""
    parser.add_argument(
        "--every", type=int, default=4,
        help=f"chunks between {between} (default 4)",
    )
    if throttle:
        parser.add_argument(
            "--throttle", type=float, default=0.0,
            help="seconds to sleep between feed strides (slows the demo "
            "stream down to scrape or watch it)",
        )


def _add_rules_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules", default=None,
        help="alert rule pack (.toml/.json); default: the shipped pack",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operate and observe a running QuantileFilter pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stats = sub.add_parser(
        "stats",
        help="run a pipeline over a dataset and print one final "
        "telemetry snapshot",
    )
    trace = sub.add_parser(
        "trace",
        help="run a fully instrumented pipeline and write a Chrome "
        "trace (Perfetto-loadable) plus a report-provenance dump",
    )
    serve = sub.add_parser(
        "serve",
        help="run a pipeline while serving /metrics, /healthz and "
        "/health/shards over HTTP",
    )
    top = sub.add_parser(
        "top",
        help="run a pipeline under a live operator dashboard "
        "(in-place ANSI refresh on a TTY, plain frames otherwise), or "
        "print a JSON/Prometheus snapshot per stride",
    )
    for sub_parser, default_format in (
        (stats, "prom"), (trace, "text"),
        (serve, "prom"), (top, "text"),
    ):
        _add_pipeline_args(sub_parser)
        sub_parser.add_argument(
            "--format", choices=("prom", "json", "text"),
            default=default_format,
            help=f"snapshot output format (default {default_format})",
        )
    trace.add_argument(
        "--out", default="repro_trace",
        help="output path prefix; writes <out>.trace.json and "
        "<out>.provenance.json (default repro_trace)",
    )
    trace.add_argument(
        "--sample-every", type=int, default=64,
        help="record every Nth per-item filter event as a trace "
        "instant (default 64; 1 = record all)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral; the chosen port is "
        "printed on stderr)",
    )
    _add_feed_args(serve, "stats/health ticks")
    serve.add_argument(
        "--linger", type=float, default=0.0,
        help="seconds to keep serving the final snapshot after the "
        "stream ends (default 0)",
    )
    _add_feed_args(top, "dashboard frames or snapshots")
    _add_rules_arg(top)
    top.add_argument(
        "--once", action="store_true",
        help="print a single final frame (no live refresh) and exit",
    )
    top.add_argument(
        "--window", type=float, default=120.0,
        help="trailing seconds the sparklines summarise (default 120)",
    )
    return parser


def build_alerts_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro alerts`` rule-evaluation family."""
    parser = argparse.ArgumentParser(
        prog="repro alerts",
        description="Evaluate declarative alert rules against a "
        "dataset run, or lint/print a rule pack.",
    )
    sub = parser.add_subparsers(dest="alerts_command", required=True)
    check = sub.add_parser(
        "check",
        help="run a pipeline, evaluate the rules each stride, and print "
        "the final verdict with every health signal; the exit code is "
        "the verdict rank (0 ok, 1 degraded, 2 critical)",
    )
    _add_pipeline_args(check)
    _add_feed_args(check, "alert evaluations", throttle=False)
    _add_rules_arg(check)
    check.add_argument(
        "--tick", type=float, default=5.0,
        help="synthetic seconds each evaluation advances the alert "
        "clock by, so for:/window durations elapse during a fast "
        "offline run (default 5)",
    )
    check.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
    )
    listing = sub.add_parser(
        "list", help="parse a rule pack and print every rule",
    )
    _add_rules_arg(listing)
    listing.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    return parser


def build_record_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro record`` flight-recorder family."""
    parser = argparse.ArgumentParser(
        prog="repro record",
        description="Capture, list and deterministically replay "
        "flight-recorder incident bundles.",
    )
    sub = parser.add_subparsers(dest="record_command", required=True)
    dump = sub.add_parser(
        "dump",
        help="run a recorded stream on a standalone filter and write "
        "an incident bundle (plus one per alert rule entering firing)",
    )
    dump.add_argument(
        "--dataset", default="internet",
        help="registered dataset name (internet/cloud/drift/zipf-*)",
    )
    dump.add_argument("--scale", type=int, default=50_000,
                      help="stream length")
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument(
        "--engine", choices=("scalar", "batch"), default="batch",
        help="filter engine to record (default batch)",
    )
    dump.add_argument(
        "--memory-bytes", type=int, default=DEFAULT_MEMORY_BYTES,
        help="filter byte budget",
    )
    dump.add_argument(
        "--dir", default="incidents",
        help="incident directory for the bundles (default ./incidents)",
    )
    dump.add_argument(
        "--max-chunks", type=int, default=32,
        help="raw chunks retained in the recorder ring (default 32)",
    )
    dump.add_argument(
        "--chunk-items", type=int, default=4_096,
        help="items per recorded chunk (default 4096)",
    )
    replay = sub.add_parser(
        "replay",
        help="re-run a bundle and verify it reproduces bit-identically "
        "(exit 1 on any divergence)",
    )
    replay.add_argument("bundle", help="path to an incident-*.json.gz")
    replay.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    listing = sub.add_parser(
        "list", help="print the bundle manifests under a directory",
    )
    listing.add_argument(
        "--dir", default="incidents",
        help="incident directory to scan (default ./incidents)",
    )
    listing.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    return parser


def _render(snapshot: Dict[str, float], fmt: str, **context) -> str:
    if fmt == "json":
        # One JSON line, context tags first (the JsonLinesEmitter shape).
        return json.dumps({**context, **snapshot})
    if fmt == "text":
        return render_snapshot_text(snapshot)
    return render_prometheus(snapshot)


def _build_pipeline(args: argparse.Namespace, **overrides):
    # Imported lazily so `repro stats --help` stays instant.
    from repro.experiments.config import build_trace, default_criteria_for
    from repro.parallel.pipeline import ParallelPipeline

    trace = build_trace(args.dataset, scale=args.scale, seed=args.seed)
    criteria = default_criteria_for(args.dataset)
    pipeline = ParallelPipeline(
        criteria,
        args.shards,
        memory_bytes=args.memory_bytes,
        chunk_items=args.chunk_items,
        seed=args.seed,
        collect_stats=True,
        **overrides,
    )
    return pipeline, trace


def _cmd_stats(args: argparse.Namespace) -> int:
    pipeline, trace = _build_pipeline(args)
    result = pipeline.run(trace.keys, trace.values)
    print(_render(result.stats, args.format, items=result.items))
    print(
        f"# run: {result.items} items, {result.num_shards} shards, "
        f"{result.seconds:.2f}s ({result.mops:.2f} MOPS), "
        f"{len(result.reported_keys)} reported keys",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.sample_every < 1:
        print(
            f"--sample-every must be >= 1, got {args.sample_every}",
            file=sys.stderr,
        )
        return 2
    from repro.observability.logs import configure_json_logging

    configure_json_logging(stream=sys.stderr, level=logging.INFO)
    # The scalar engine carries Report objects (and thus provenance)
    # end to end.
    pipeline, trace = _build_pipeline(
        args,
        engine="scalar",
        collect_trace=True,
        collect_provenance=True,
        trace_sample_every=args.sample_every,
    )
    result = pipeline.run(trace.keys, trace.values)

    trace_path = f"{args.out}.trace.json"
    pipeline.tracer.write(
        trace_path,
        dataset=args.dataset, items=result.items, shards=result.num_shards,
    )
    prov_path = f"{args.out}.provenance.json"
    records = result.report_records or []
    with open(prov_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "dataset": args.dataset,
                "items": result.items,
                "shards": result.num_shards,
                "reports": records,
            },
            handle, indent=2,
        )

    summaries = render_histogram_summaries(result.stats or {})
    if summaries:
        print(summaries)
    print(
        f"# run: {result.items} items, {result.num_shards} shards, "
        f"{result.seconds:.2f}s ({result.mops:.2f} MOPS), "
        f"{len(result.reported_keys)} reported keys",
        file=sys.stderr,
    )
    from repro.observability.registry import base_name

    worker_dropped = sum(
        value
        for sample, value in (result.stats or {}).items()
        if base_name(sample) == "tracer_dropped_events_total"
        and 'role="master"' not in sample
    )
    print(
        f"# wrote {trace_path} ({len(result.trace_events or [])} events, "
        f"{pipeline.tracer.dropped} master-dropped, "
        f"{int(worker_dropped)} worker-dropped) and {prov_path} "
        f"({len(records)} report records)",
        file=sys.stderr,
    )
    return 0


def _feed_loop(args: argparse.Namespace, pipeline, trace, source,
               on_tick=None):
    """Feed a started pipeline one stride at a time, ticking after each.

    The monitor watches the raw stride off the insert path (the workers
    never see it), the pipeline refreshes its cached stats view, and
    ``source.tick()`` advances the verdict; ``on_tick`` receives each
    tick's transitions.  Returns the finished pipeline's result.
    """
    import time

    stride = args.chunk_items * getattr(args, "every", 4)
    throttle = getattr(args, "throttle", 0.0)
    for start in range(0, trace.keys.shape[0], stride):
        keys = trace.keys[start:start + stride]
        values = trace.values[start:start + stride]
        source.monitor.observe_batch(keys, values)
        pipeline.feed(keys, values)
        pipeline.collect_stats_view()
        transitions = source.tick()
        if on_tick is not None:
            on_tick(transitions)
        if throttle:
            time.sleep(throttle)
    return pipeline.finish()


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.every < 1:
        print(f"--every must be >= 1, got {args.every}", file=sys.stderr)
        return 2
    import time

    from repro.observability.server import HealthServer, PipelineServeSource

    pipeline, trace = _build_pipeline(args)
    source = PipelineServeSource(pipeline)
    server = HealthServer(source, host=args.host, port=args.port)
    with pipeline:
        # One tick before serving, so the first scrape already sees the
        # worker signal.
        source.tick()
        server.start()
        print(f"serving on {server.url}", file=sys.stderr)
        try:
            result = _feed_loop(args, pipeline, trace, source)
            print(
                f"# run: {result.items} items, {result.num_shards} shards, "
                f"verdict {source.alerts.verdict()}",
                file=sys.stderr,
            )
            if args.linger:
                print(
                    f"# lingering {args.linger:g}s with the final snapshot",
                    file=sys.stderr,
                )
                time.sleep(args.linger)
        finally:
            server.stop()
    return 0


def _load_rules_arg(path: Optional[str]):
    """The shipped pack, or the pack at ``path`` (.toml/.json)."""
    from repro.observability.alerts import default_rules, load_rules

    if path is None:
        return default_rules()
    return load_rules(path)


def _cmd_top(args: argparse.Namespace) -> int:
    if args.every < 1:
        print(f"--every must be >= 1, got {args.every}", file=sys.stderr)
        return 2
    from repro.common.errors import ParameterError
    from repro.observability.dashboard import Dashboard
    from repro.observability.server import PipelineServeSource
    from repro.observability.term import LiveScreen, ansi_capable

    try:
        rules = _load_rules_arg(args.rules)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pipeline, trace = _build_pipeline(args)
    source = PipelineServeSource(pipeline, rules=rules)
    # On an ANSI-capable TTY the dashboard and prom snapshots redraw in
    # place (cursor-home + erase-to-right per line — no full-screen
    # clear, so no flicker).  JSON always appends one object per
    # stride: it is the format to pipe into a file, and a live repaint
    # would corrupt the stream.  Non-TTY / TERM=dumb degrade the same
    # way.
    live = (
        args.format != "json" and ansi_capable(sys.stdout) and not args.once
    )
    screen = LiveScreen(sys.stdout) if live else None
    dash = Dashboard(
        source.store,
        engine=source.alerts,
        title=f"repro top · {args.dataset}",
        window_seconds=args.window,
        ascii_only=not live,
    )

    def frame(status: str, **context) -> str:
        if args.format == "text":
            return dash.render(report=source.report(), status=status)
        text = _render(source.metrics_snapshot(), args.format,
                       items=pipeline.items_fed, **context)
        return text if args.format == "json" else f"# --- {status} ---\n{text}"

    def show(text: str) -> None:
        if screen is not None:
            screen.render(text)
        else:  # plain dashboard frames stay apart by one blank line
            print(text + ("\n" if args.format == "text" else ""))

    def on_tick(_transitions) -> None:
        if not args.once:
            show(frame(f"after {pipeline.items_fed} items"))

    try:
        with pipeline:
            result = _feed_loop(args, pipeline, trace, source, on_tick)
        show(frame(
            "final" if args.format != "text"
            else f"done · {result.items} items · {result.mops:.2f} MOPS",
            final=True,
        ))
    finally:
        if screen is not None:
            screen.close()
            print()
    return 0


def _cmd_alerts_check(args: argparse.Namespace) -> int:
    if args.every < 1:
        print(f"--every must be >= 1, got {args.every}", file=sys.stderr)
        return 3
    from repro.common.errors import ParameterError
    from repro.observability.health import HEALTH_METRIC_HELP, verdict_rank
    from repro.observability.registry import base_name
    from repro.observability.server import PipelineServeSource
    from repro.observability.timeseries import MetricStore

    try:
        rules = _load_rules_arg(args.rules)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    pipeline, trace = _build_pipeline(args)
    # A synthetic clock (--tick seconds per evaluation) so for:/window
    # durations elapse over an offline run that finishes in wall-clock
    # milliseconds per stride.
    clock = {"now": 0.0}
    store = MetricStore(step_seconds=0.0, clock=lambda: clock["now"])
    source = PipelineServeSource(pipeline, rules=rules, store=store)
    transitions = []

    def on_tick(fresh) -> None:
        transitions.extend(fresh)
        clock["now"] += args.tick

    with pipeline:
        result = _feed_loop(args, pipeline, trace, source, on_tick)
    report = source.report()
    payload = source.alerts_payload()
    if args.format == "json":
        payload["transitions"] = [str(t) for t in transitions]
        payload.update(report.as_dict())
        print(json.dumps(payload, indent=2))
    elif args.format == "prom":
        print(render_prometheus({
            sample: value
            for sample, value in source.metrics_snapshot().items()
            if base_name(sample) in HEALTH_METRIC_HELP
        }))
    else:
        print(f"verdict: {report.verdict}")
        for signal in report.signals:
            print(
                f"  [{signal.verdict:>8}] {signal.name} = "
                f"{signal.value:.4g} — {signal.reason}"
            )
        for transition in transitions:
            print(transition)
        firing = [
            status for status in payload["alerts"]
            if status["state"] == "firing"
        ]
        if not firing:
            print(f"ok: no firing alerts ({payload['rules']} rules "
                  f"evaluated over {clock['now']:g} synthetic seconds)")
        for status in firing:
            rule = status["rule"]
            print(
                f"FIRING [{rule['severity']}] {rule['name']}: "
                f"{rule['expr']} (value {status['last_value']})"
            )
    print(
        f"# run: {result.items} items, {result.num_shards} shards, "
        f"{len(result.reported_keys)} reported keys",
        file=sys.stderr,
    )
    # The verdict rank is the exit code in every format: 0 ok,
    # 1 degraded, 2 critical.
    return verdict_rank(report.verdict)


def _cmd_alerts_list(args: argparse.Namespace) -> int:
    from repro.common.errors import ParameterError

    try:
        rules = _load_rules_arg(args.rules)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(
            {"rule": [rule.as_dict() for rule in rules]}, indent=2
        ))
        return 0
    for rule in rules:
        for_text = (
            f" for {rule.for_seconds:g}s" if rule.for_seconds else ""
        )
        resolve_text = (
            f" resolve {rule.resolve:g}" if rule.resolve is not None else ""
        )
        print(f"[{rule.severity:>8}] {rule.name}: {rule.expr}"
              f"{for_text}{resolve_text}")
        if rule.description:
            print(f"           {rule.description}")
    return 0


def alerts_main(argv: Optional[list] = None) -> int:
    """Entry point for the ``repro alerts`` family."""
    args = build_alerts_parser().parse_args(argv)
    if args.alerts_command == "check":
        return _cmd_alerts_check(args)
    return _cmd_alerts_list(args)


def _cmd_record_dump(args: argparse.Namespace) -> int:
    from repro.experiments.config import build_trace, default_criteria_for
    from repro.observability.instrument import observe_filter
    from repro.observability.recorder import FlightRecorder
    from repro.observability.server import FilterServeSource

    trace = build_trace(args.dataset, scale=args.scale, seed=args.seed)
    criteria = default_criteria_for(args.dataset)
    if args.engine == "batch":
        from repro.core.vectorized import BatchQuantileFilter

        filt = BatchQuantileFilter(
            criteria, args.memory_bytes, seed=args.seed,
            chunk_size=args.chunk_items,
        )
    else:
        from repro.core.quantile_filter import QuantileFilter

        filt = QuantileFilter(
            criteria, args.memory_bytes, counter_kind="float",
            seed=args.seed,
        )
    registry = observe_filter(filt)
    recorder = FlightRecorder(
        filt,
        max_chunks=args.max_chunks,
        incident_dir=args.dir,
        registry=registry,
        config={
            "dataset": args.dataset, "scale": args.scale,
            "seed": args.seed, "engine": args.engine,
            "memory_bytes": args.memory_bytes,
        },
    )
    # Every rule entering firing dumps an alert:<rule> bundle on the way.
    source = FilterServeSource(filt, registry=registry, recorder=recorder)
    for start in range(0, trace.keys.shape[0], args.chunk_items):
        keys = trace.keys[start:start + args.chunk_items]
        values = trace.values[start:start + args.chunk_items]
        source.monitor.observe_batch(keys, values)
        recorder.feed(keys, values)
        source.tick()
    path = recorder.dump("explicit")
    print(path)
    print(
        f"# recorded {filt.items_processed} items "
        f"({recorder.retained_items} retained), "
        f"{recorder.dumps_total} bundle(s) written to {args.dir}",
        file=sys.stderr,
    )
    return 0


def _cmd_record_replay(args: argparse.Namespace) -> int:
    from repro.common.errors import TraceFormatError
    from repro.observability.recorder import replay_bundle

    try:
        result = replay_bundle(args.bundle)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.summary())
    return 0 if result.ok else 1


def _cmd_record_list(args: argparse.Namespace) -> int:
    from repro.observability.recorder import list_incidents

    manifests = list_incidents(args.dir)
    if args.format == "json":
        print(json.dumps(manifests, indent=2))
        return 0
    if not manifests:
        print(f"(no incident bundles under {args.dir})")
        return 0
    for manifest in manifests:
        print(
            f"{manifest.get('bundle')}  reason={manifest.get('reason')}  "
            f"engine={manifest.get('engine')}  "
            f"items={manifest.get('items_processed')}  "
            f"window={manifest.get('window_items')}"
        )
    return 0


def record_main(argv: Optional[list] = None) -> int:
    """Entry point for the ``repro record`` family."""
    args = build_record_parser().parse_args(argv)
    if args.record_command == "dump":
        return _cmd_record_dump(args)
    if args.record_command == "replay":
        return _cmd_record_replay(args)
    return _cmd_record_list(args)


#: Exit status when the reader closes stdout early: 128 + SIGPIPE, as a
#: shell reports a writer the signal killed (not a verdict code).
BROKEN_PIPE_EXIT = 141


def exit_quietly_on_broken_pipe(main: Callable) -> Callable:
    """Wrap a console entry point: a reader closing early (``repro stats
    | head -1``) ends it with :data:`BROKEN_PIPE_EXIT`, no traceback."""

    @functools.wraps(main)
    def entry(argv: Optional[list] = None) -> int:
        try:
            status = main(argv)
            sys.stdout.flush()  # meet a closed pipe here, not at exit
        except BrokenPipeError:
            # Point stdout at devnull so the flush at exit cannot raise.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return BROKEN_PIPE_EXIT
        return status

    return entry


@exit_quietly_on_broken_pipe
def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "matrix":
        # The experiment-matrix family (run|report|gate) lives with the
        # experiment harness; ``repro matrix`` is its operations-CLI door.
        from repro.experiments.cli import matrix_main

        return matrix_main(argv[1:])
    if argv and argv[0] == "record":
        return record_main(argv[1:])
    if argv and argv[0] == "alerts":
        return alerts_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_top(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
