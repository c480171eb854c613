"""Smoke tests for the runnable examples.

Fast examples run end-to-end (their printed self-checks must hold);
slow ones (multi-minute sweeps) are compile-checked so a syntax or
import regression still fails the suite.
"""

import importlib.util
import logging
import py_compile
import sys
from pathlib import Path

import pytest

from repro.observability.tracing import PIPELINE_SPANS

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestFastExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "outstanding keys: [0, 1, 2, 3, 4]" in output
        assert "exact oracle agrees: True" in output

    def test_sensor_analytics(self, capsys):
        load_example("sensor_analytics").main()
        output = capsys.readouterr().out
        assert "construction sites flagged sustained: True" in output
        assert "nightclub districts flagged spiky:    True" in output
        assert "residential sensors quiet:            True" in output

    def test_observed_monitoring(self, capsys):
        load_example("observed_monitoring").main()
        output = capsys.readouterr().out
        assert "aggregate equals shard sum: True" in output
        assert "items conserved end to end: True" in output
        assert "# TYPE qf_items_total counter" in output
        assert "qf_items_total 80000" in output

    def test_traced_monitoring(self, capsys, monkeypatch, tmp_path):
        # The example writes traced_monitoring.trace.json into the
        # working directory and adds a JSON log handler to the "repro"
        # logger; neither may outlive the test.
        monkeypatch.chdir(tmp_path)
        logger = logging.getLogger("repro")
        monkeypatch.setattr(logger, "handlers", [])
        level = logger.level
        try:
            load_example("traced_monitoring").main()
        finally:
            logger.setLevel(level)
        output = capsys.readouterr().out
        assert "every one with provenance" in output
        for span in PIPELINE_SPANS:
            assert span in output

    def test_health_monitoring(self, capsys):
        load_example("health_monitoring").main()
        output = capsys.readouterr().out
        assert "baseline verdict: ok" in output
        assert "baseline drift signal ok: True" in output
        assert "drifted verdict: degraded" in output
        assert "drift signal degraded after injection: True" in output
        assert "triggering signal named in reasons: True" in output
        assert "qf_health_status 1" in output

    def test_recorded_monitoring(self, capsys, tmp_path):
        result = load_example("recorded_monitoring").main(str(tmp_path))
        output = capsys.readouterr().out
        assert "baseline verdict: ok" in output
        assert "drifted verdict: degraded" in output
        assert "alert:exceedance-drift" in output
        assert "trigger: alert:" in output
        assert "replay MATCH" in output
        assert "replay matches capture bit-identically: True" in output
        assert result.ok
        # The alert dumps landed where the caller asked.
        assert list(tmp_path.glob("incident-*.json.gz"))
        assert list(tmp_path.glob("incident-*.manifest.json"))

    def test_threshold_demo(self, capsys):
        load_example("threshold_demo").main()
        output = capsys.readouterr().out
        assert "controller retargeted under drift:     True" in output
        assert "controlled rate within 25% of target:  True" in output
        assert "fixed-threshold rate off by over 50%:  True" in output

    def test_cpu_utilization_scaled_down(self, capsys):
        module = load_example("cpu_utilization")
        module.TICKS = 1_200
        module.NIGHT_STARTS = 600
        module.main()
        output = capsys.readouterr().out
        assert "saturated hosts 0-2 caught during the day: True" in output
        assert "rogue night job on host 3 caught at night: True" in output


class TestSlowExamplesCompile:
    SLOW_EXAMPLES = [
        "network_latency_monitoring", "parameter_tuning",
        "streaming_service", "distributed_monitoring",
        "sharded_monitoring",
    ]

    @pytest.mark.parametrize("name", SLOW_EXAMPLES)
    def test_compiles(self, name):
        py_compile.compile(str(EXAMPLES_DIR / f"{name}.py"), doraise=True)

    @pytest.mark.parametrize("name", SLOW_EXAMPLES)
    def test_imports_and_exposes_main(self, name):
        module = load_example(name)
        assert callable(module.main)
