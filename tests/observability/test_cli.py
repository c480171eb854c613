"""The `repro` operations CLI, checked against the docs.

The acceptance criterion for the telemetry layer is self-enforcing
here: every metric family documented in ``docs/observability.md`` must
appear in a live ``repro stats`` snapshot (windowed-filter metrics
excepted — the pipeline runs batch filters).
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro

from repro.observability.cli import build_parser, main
from repro.observability.registry import base_name

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"

STATS_ARGS = [
    "--dataset", "internet", "--scale", "12000", "--shards", "2",
    "--chunk-items", "4096", "--seed", "3",
]


def warn_items_pack(tmp_path) -> str:
    """A one-rule pack whose warning fires on any real run."""
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rule": [{
        "name": "warn-items",
        "expr": "value(qf_items_total) > 100",
        "severity": "warning",
        "resolve": 50.0,
    }]}))
    return str(rules)


def documented_families():
    """Metric families from the doc's metric tables (backticked first
    column).  Only the two metric-catalogue sections count — the doc
    also tables span names and provenance fields, which are not
    snapshot samples."""
    families = {}
    in_metric_section = False
    for line in DOCS.read_text().splitlines():
        if line.startswith("## "):
            in_metric_section = "metrics (" in line
            continue
        if not in_metric_section:
            continue
        m = re.match(r"\| `([a-z0-9_]+)[`{]", line)
        if m:
            families[m.group(1)] = (
                "Windowed filters only" in line
                or "Thread-parallel engine only" in line
            )
    return families


def test_doc_tables_cover_the_canonical_metric_list():
    from repro.observability.instrument import FILTER_METRIC_HELP

    documented = set(documented_families())
    assert set(FILTER_METRIC_HELP) <= documented
    assert "pipeline_queue_depth" in documented
    assert "worker_chunks_total" in documented


class TestParser:
    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.command == "stats"
        assert args.format == "prom"
        assert args.shards == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.linger == 0.0
        assert args.every == 4


class TestStatsCommand:
    @pytest.fixture(scope="class")
    def prom_output(self):
        # capsys is function-scoped; capture by hand so the (slow)
        # pipeline run happens once for the whole class.
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["stats", *STATS_ARGS])
        assert rc == 0
        return out.getvalue()

    def test_every_documented_metric_appears(self, prom_output):
        present = set()
        for line in prom_output.splitlines():
            if not line or line.startswith("#"):
                continue
            family = base_name(line.split(" ")[0])
            present.add(family)
            # Histogram families appear through their exploded
            # _bucket/_count/_sum samples.
            for suffix in ("_bucket", "_count", "_sum"):
                if family.endswith(suffix):
                    present.add(family[: -len(suffix)])
        for family, other_engine_only in documented_families().items():
            if other_engine_only:
                continue
            assert family in present, (
                f"{family} documented in docs/observability.md but missing "
                f"from `repro stats` output")

    def test_prometheus_headers_present(self, prom_output):
        assert "# TYPE qf_items_total counter" in prom_output
        assert "# TYPE qf_candidate_occupancy gauge" in prom_output
        assert "# HELP pipeline_workers_alive" in prom_output

    def test_items_match_scale(self, prom_output):
        for line in prom_output.splitlines():
            if line.startswith("qf_items_total "):
                assert line.split()[1] == "12000"
                break
        else:  # pragma: no cover
            pytest.fail("qf_items_total sample missing")


def test_top_json_emits_valid_json_lines(capsys):
    rc = main(["top", *STATS_ARGS, "--every", "1", "--format", "json"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 2  # at least one stride plus the final record
    records = [json.loads(l) for l in lines]
    assert records[-1].get("final") is True
    assert records[-1]["qf_items_total"] == 12000.0
    # Items are cumulative across strides.
    items = [r["qf_items_total"] for r in records]
    assert items == sorted(items)


def test_stats_text_format(capsys):
    rc = main(["stats", *STATS_ARGS, "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "#" not in out.split("\n")[0]
    assert re.search(r"qf_items_total\s+12000", out)


def test_serve_command_scrapeable_while_running():
    """Integration: `repro serve` on an ephemeral port, scraped mid-run.

    Runs the CLI in a thread against a throttled stream, scrapes
    /metrics and /healthz while items are still flowing, and checks the
    command exits 0 without leaving server threads behind.
    """
    import io
    import re as _re
    import threading
    import time
    import urllib.request
    from contextlib import redirect_stderr

    stderr = io.StringIO()
    result = {}

    def run():
        with redirect_stderr(stderr):
            result["rc"] = main([
                "serve", *STATS_ARGS, "--scale", "30000",
                "--chunk-items", "2048", "--every", "1",
                "--throttle", "0.25", "--port", "0", "--linger", "3",
            ])

    baseline_threads = threading.active_count()
    thread = threading.Thread(target=run)
    thread.start()
    try:
        url = None
        deadline = time.monotonic() + 30
        while url is None and time.monotonic() < deadline:
            m = _re.search(r"serving on (http://\S+)", stderr.getvalue())
            if m:
                url = m.group(1)
            else:
                time.sleep(0.05)
        assert url is not None, "serve never printed its URL"

        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            payload = json.load(resp)
        assert payload["verdict"] in ("ok", "degraded")
        assert payload["signals"]

        with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
            body = resp.read().decode()
        assert "qf_health_status" in body
        for line in body.strip().splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # parseable values

        # The first per-shard view lands after the first stride's
        # collect_stats_view(); poll briefly for it.
        shards = {"shards": []}
        deadline = time.monotonic() + 30
        while len(shards["shards"]) < 2 and time.monotonic() < deadline:
            with urllib.request.urlopen(
                url + "/health/shards", timeout=10
            ) as resp:
                shards = json.load(resp)
            if len(shards["shards"]) < 2:
                time.sleep(0.1)
        assert len(shards["shards"]) == 2
    finally:
        thread.join(timeout=120)
    assert not thread.is_alive()
    assert result["rc"] == 0
    time.sleep(0.2)
    assert threading.active_count() <= baseline_threads


class TestRecordCommand:
    def test_parser_defaults(self):
        from repro.observability.cli import build_record_parser

        args = build_record_parser().parse_args(["dump"])
        assert args.record_command == "dump"
        assert args.dataset == "internet"
        assert args.engine == "batch"
        assert args.max_chunks == 32
        assert args.chunk_items == 4096
        assert str(args.dir) == "incidents"
        args = build_record_parser().parse_args(
            ["replay", "bundle.json.gz", "--format", "json"]
        )
        assert args.record_command == "replay"
        assert args.bundle == "bundle.json.gz"

    def test_record_subcommand_routes_through_main(self, tmp_path, capsys):
        rc = main([
            "record", "dump", "--dataset", "internet", "--scale", "6000",
            "--engine", "batch", "--dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        bundle = [
            line for line in out.splitlines()
            if line.endswith(".json.gz")
        ][-1]
        assert main(["record", "replay", bundle]) == 0
        assert "replay MATCH" in capsys.readouterr().out
        assert main(["record", "list", "--dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "engine=batch" in listing
        assert "reason=explicit" in listing


class TestTopCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.command == "top"
        assert args.every == 4
        assert not args.once
        assert args.rules is None
        assert args.window == 120.0

    def test_top_once_plain_frame_under_dumb_term(self, capsys, monkeypatch):
        """CI criterion: TERM=dumb `repro top --once` emits one plain
        frame — no ANSI escapes, no cursor games."""
        monkeypatch.setenv("TERM", "dumb")
        rc = main(["top", *STATS_ARGS, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "\x1b[" not in out
        assert "repro top · internet" in out
        assert "verdict:" in out
        assert "throughput" in out
        assert "alerts (" in out  # the default pack is attached

    def test_top_bad_rules_path_fails_fast(self, capsys):
        rc = main(["top", *STATS_ARGS, "--once", "--rules", "/nope.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestAlertsCommand:
    def test_parser_defaults(self):
        from repro.observability.cli import build_alerts_parser

        args = build_alerts_parser().parse_args(["check"])
        assert args.alerts_command == "check"
        assert args.tick == 5.0
        assert args.rules is None
        args = build_alerts_parser().parse_args(["list", "--format", "json"])
        assert args.alerts_command == "list"

    def test_list_prints_the_default_pack(self, capsys):
        rc = main(["alerts", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exceedance-drift" in out
        assert "worker-death" in out
        assert "[critical]" in out

    def test_list_json_round_trips(self, capsys, tmp_path):
        from repro.observability.alerts import default_rules, load_rules

        rc = main(["alerts", "list", "--format", "json"])
        assert rc == 0
        pack = tmp_path / "pack.json"
        pack.write_text(capsys.readouterr().out)
        assert load_rules(pack) == default_rules()

    def test_check_benign_run_exits_zero(self, capsys):
        rc = main(["alerts", "check", *STATS_ARGS])
        assert rc == 0
        assert "ok: no firing alerts" in capsys.readouterr().out

    def test_check_firing_critical_exits_two(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rule": [{
            "name": "always-items",
            "expr": "value(qf_items_total) > 100",
            "severity": "critical",
            "resolve": 50.0,
        }]}))
        rc = main([
            "alerts", "check", *STATS_ARGS, "--rules", str(rules),
            "--format", "json",
        ])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["firing"] == ["always-items"]
        assert any(
            "inactive -> firing" in t for t in payload["transitions"]
        )

    def test_check_firing_warning_exits_one(self, tmp_path, capsys):
        rules = warn_items_pack(tmp_path)
        rc = main(["alerts", "check", *STATS_ARGS, "--rules", rules])
        assert rc == 1
        assert "FIRING [warning] warn-items" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json", "prom"])
    def test_check_exit_code_in_every_format(self, fmt, tmp_path):
        rules = warn_items_pack(tmp_path)
        rc = main([
            "alerts", "check", *STATS_ARGS, "--rules", rules,
            "--format", fmt,
        ])
        assert rc == 1

    def test_check_text_prints_signals_and_transitions(self, tmp_path, capsys):
        from repro.observability.health import SIGNAL_FAMILIES

        rules = warn_items_pack(tmp_path)
        main(["alerts", "check", *STATS_ARGS, "--rules", rules])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verdict: degraded"
        signals = {}
        for line in lines[1:]:
            match = re.match(r"  \[ *[a-z]+\] ([a-z_]+) = (\S+) — ", line)
            if match:
                signals[match.group(1)] = float(match.group(2))
        # Every signal a pipeline computes (the probe-based ones need a
        # standalone filter), each with its value.
        assert set(signals) == set(SIGNAL_FAMILIES) - {
            "fingerprint_collision", "vague_noise",
        }
        heads = [line.split(" (value")[0] for line in lines]
        transition = heads.index("[warning] warn-items: inactive -> firing")
        firing = heads.index(
            "FIRING [warning] warn-items: value(qf_items_total) > 100"
        )
        assert len(signals) < transition < firing

    def test_check_json_carries_alerts_and_verdict(self, capsys):
        from repro.observability.health import verdict_rank

        rc = main(["alerts", "check", *STATS_ARGS, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert {
            "evaluated_at", "rules", "firing", "alerts", "transitions",
            "verdict", "reasons", "signals",
        } <= set(payload)
        assert rc == verdict_rank(payload["verdict"])
        assert {s["name"] for s in payload["signals"]} >= {
            "report_rate", "exceedance_drift", "shadow_accuracy",
        }

    def test_check_prom_prints_health_gauges(self, capsys):
        from repro.observability.health import HEALTH_METRIC_HELP

        rc = main(["alerts", "check", *STATS_ARGS, "--format", "prom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"^qf_health_status 0$", out, re.MULTILINE)
        samples = [line for line in out.splitlines()
                   if line and not line.startswith("#")]
        assert all(
            base_name(line.rsplit(" ", 1)[0]) in HEALTH_METRIC_HELP
            for line in samples
        )

    def test_check_bad_rules_exit_three(self, capsys):
        rc = main(["alerts", "check", "--rules", "/nope.toml"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


def test_top_prom_degrades_to_plain_lines_off_tty(capsys):
    """top --format prom without a TTY appends plain snapshots — no
    ANSI control sequences anywhere in the stream."""
    rc = main(["top", *STATS_ARGS, "--format", "prom"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out
    assert out.count("# --- after") >= 1
    assert "# --- final ---" in out


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ["repro", "alerts", "list"],
    ["repro.experiments.cli", "matrix", "report", "--runs", "{runs}"],
], ids=["repro-alerts-list", "experiments-matrix-report"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, command,
                                                   buffered):
    """Both console entry points end quietly when their reader closes
    early (``repro stats | head -1``): status 141 (128 + SIGPIPE) and
    nothing on stderr, whether the write fails inside the command or
    at the final flush of a buffered stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    args = [part.format(runs=tmp_path) for part in command]
    proc = subprocess.Popen(
        [sys.executable, "-m", *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    )
    proc.stdout.close()  # before the interpreter has even started
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
