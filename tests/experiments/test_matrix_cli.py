"""End-to-end acceptance for ``repro matrix run|report|gate``.

The flow the ISSUE pins: ``run`` twice persists two run directories,
``report`` renders a trend document comparing them, and a deliberately
injected slowdown makes ``gate`` exit non-zero.
"""

import json

import pytest

from repro.experiments.cli import matrix_main
from repro.observability.cli import main as repro_main


@pytest.fixture()
def tiny_config_path(tmp_path):
    config = {
        "matrix": {"name": "cli-e2e", "seed": 0, "band_fraction": 0.25,
                   "shadow_sample_rate": 1},
        "axes": {
            "algorithms": ["quantilefilter"],
            "engines": ["scalar", "batch"],
            "workloads": ["internet"],
            "memory_bytes": [16384],
            "scales": [1500],
        },
        # These cells time in single-digit milliseconds, so back-to-back
        # runs diverge by 25%+ from scheduler noise alone; the tests
        # copy the base run's timing into the candidate before gating
        # (_copy_timing).  The injected regression below is 10x (ratio
        # 0.1), well under 0.3.
        "gate": {"min_throughput_ratio": 0.3, "max_f1_drop": 0.05},
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    return path


def _run(args):
    return matrix_main([str(arg) for arg in args])


def _copy_timing(base_dir, candidate_dir):
    """Give every candidate cell its base cell's persisted ``timing``.

    Both runs write ``<cell_id>.json``, so afterwards the gate's
    throughput ratio is exactly 1.0: only an injected slowdown moves
    it, never the host's timing noise.
    """
    for base_path in base_dir.glob("*.json"):
        if base_path.name == "manifest.json":
            continue
        candidate_path = candidate_dir / base_path.name
        record = json.loads(candidate_path.read_text())
        record["timing"] = json.loads(base_path.read_text())["timing"]
        candidate_path.write_text(json.dumps(record))


class TestRunReportGate:
    def test_full_flow_with_injected_slowdown(self, tmp_path, capsys,
                                              tiny_config_path):
        runs = tmp_path / "runs"

        # Two clean runs of the same 2-cell matrix.
        for run_id in ("base", "cand"):
            assert _run(["run", "--config", tiny_config_path,
                         "--runs", runs, "--run-id", run_id,
                         "--quiet"]) == 0
        assert (runs / "base" / "manifest.json").exists()
        cell_files = [
            path for path in (runs / "cand").glob("*.json")
            if path.name != "manifest.json"
        ]
        assert len(cell_files) == 2
        _copy_timing(runs / "base", runs / "cand")

        # The trend report compares the two persisted runs.
        report_md = tmp_path / "trend.md"
        report_html = tmp_path / "trend.html"
        assert _run(["report", "--runs", runs, "--out", report_md,
                     "--html", report_html]) == 0
        text = report_md.read_text()
        assert "base" in text and "cand" in text
        assert "## Throughput trajectories" in text
        assert "**PASS**" in text
        assert report_html.read_text().startswith("<!doctype html>")

        # Identical work passes the gate.
        assert _run(["gate", "--runs", runs]) == 0

        # Inject a 10x slowdown into the candidate's persisted records…
        for path in cell_files:
            record = json.loads(path.read_text())
            record["timing"]["items_per_s"] /= 10.0
            path.write_text(json.dumps(record))

        # …and the gate must now fail with a non-zero exit code.
        capsys.readouterr()
        assert _run(["gate", "--runs", runs]) == 1
        err = capsys.readouterr().err
        assert "gate FAIL" in err and "items_per_s regressed" in err

        # The report flags the same regression.
        assert _run(["report", "--runs", runs, "--out", report_md]) == 0
        assert "**FAIL**" in report_md.read_text()

    def test_explicit_baseline_candidate_selection(self, tmp_path,
                                                   tiny_config_path):
        runs = tmp_path / "runs"
        for run_id in ("one", "two"):
            assert _run(["run", "--config", tiny_config_path,
                         "--runs", runs, "--run-id", run_id,
                         "--quiet"]) == 0
        _copy_timing(runs / "one", runs / "two")
        assert _run(["gate", "--runs", runs, "--baseline", "one",
                     "--candidate", "two"]) == 0
        with pytest.raises(SystemExit):
            _run(["gate", "--runs", runs, "--baseline", "missing"])

    def test_gate_policy_cli_override(self, tmp_path, tiny_config_path):
        runs = tmp_path / "runs"
        for run_id in ("one", "two"):
            assert _run(["run", "--config", tiny_config_path,
                         "--runs", runs, "--run-id", run_id,
                         "--quiet"]) == 0
        _copy_timing(runs / "one", runs / "two")
        record_paths = [
            path for path in (runs / "two").glob("*.json")
            if path.name != "manifest.json"
        ]
        for path in record_paths:
            record = json.loads(path.read_text())
            record["timing"]["items_per_s"] *= 0.1
            path.write_text(json.dumps(record))
        assert _run(["gate", "--runs", runs]) == 1
        assert _run(["gate", "--runs", runs,
                     "--min-throughput-ratio", "0.02"]) == 0

    def test_gate_needs_two_runs(self, tmp_path, tiny_config_path):
        runs = tmp_path / "runs"
        assert _run(["run", "--config", tiny_config_path, "--runs", runs,
                     "--run-id", "only", "--quiet"]) == 0
        with pytest.raises(SystemExit):
            _run(["gate", "--runs", runs])

    def test_missing_config_is_clean_error(self, tmp_path):
        assert _run(["run", "--config", tmp_path / "absent.json"]) == 2

    def test_zero_cell_config_is_clean_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"axes": {"workloads": []}}))
        assert _run(["run", "--config", path,
                     "--runs", tmp_path / "runs"]) == 2


class TestOperationsCliDoor:
    def test_repro_matrix_delegates(self, tmp_path, tiny_config_path,
                                    capsys):
        runs = tmp_path / "runs"
        code = repro_main([
            "matrix", "run", "--config", str(tiny_config_path),
            "--runs", str(runs), "--run-id", "via-repro", "--quiet",
        ])
        assert code == 0
        assert (runs / "via-repro" / "manifest.json").exists()
        assert "persisted run via-repro" in capsys.readouterr().out

    def test_report_on_empty_store_shows_bench_seed(self, tmp_path):
        # A fresh checkout has no persisted runs, but the committed
        # BENCH_*.json snapshots seed the trajectory by default.
        out = tmp_path / "report.md"
        assert _run(["report", "--runs", tmp_path / "none",
                     "--out", out]) == 0
        text = out.read_text()
        assert "bench-seed" in text
        assert "bench/throughput/batch" in text
        assert "bench/observability/recorded" in text

    def test_report_on_empty_store_without_bench_seed(self, tmp_path):
        out = tmp_path / "report.md"
        assert _run(["report", "--runs", tmp_path / "none",
                     "--no-bench-seed", "--out", out]) == 0
        assert "no persisted runs" in out.read_text()
