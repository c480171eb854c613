"""End-to-end incident forensics: drift fires a dump, replay reproduces it.

The acceptance scenario for the flight recorder: an injected-drift
incident on BOTH engines must fire a rule that auto-dumps a bundle
whose replay is bit-identical, and the ``repro record`` CLI must
round-trip it with honest exit codes.
"""

import gzip
import json

import pytest

from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter
from repro.core.vectorized import BatchQuantileFilter
from repro.observability.cli import main as cli_main
from repro.observability.health import HealthMonitor
from repro.observability.instrument import observe_filter
from repro.observability.recorder import (
    FlightRecorder,
    load_bundle,
    replay_bundle,
)
from repro.observability.server import FilterServeSource
from repro.streams.drift import DriftConfig, generate_drift_trace

CRITERIA = Criteria(delta=0.9, threshold=300.0, epsilon=5.0)
GEOMETRY = dict(num_buckets=128, bucket_size=4, vague_width=512, seed=7)
STRIDE = 1_024

BENIGN = DriftConfig(
    num_items=6_000, num_keys=200, num_phases=1,
    anomalous_per_phase=0, seed=3,
)
INJECTED = DriftConfig(
    num_items=6_000, num_keys=200, num_phases=1,
    anomalous_per_phase=60, anomaly_boost=25.0, seed=3,
)


def drive_incident(recorder, source):
    """Benign phase then injected drift, ticking per stride; returns
    the bundle the first rule entering firing dumped, and that rule."""
    for trace in (generate_drift_trace(BENIGN),
                  generate_drift_trace(INJECTED)):
        for begin in range(0, len(trace), STRIDE):
            keys = [int(k) for k in trace.keys[begin:begin + STRIDE]]
            values = [
                float(v) for v in trace.values[begin:begin + STRIDE]
            ]
            recorder.feed(keys, values)
            source.monitor.observe_batch(keys, values)
            fired = [
                t.rule for t in source.tick() if t.new_state == "firing"
            ]
            if fired:
                assert source.report().verdict != "ok"
                return recorder.list_incidents()[0]["path"], fired[-1]
    return None, None


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_drift_incident_replays_bit_identically(engine, tmp_path):
    if engine == "scalar":
        filt = QuantileFilter(CRITERIA, **GEOMETRY)
    else:
        filt = BatchQuantileFilter(CRITERIA, chunk_size=STRIDE, **GEOMETRY)
    # Instrument before the recorder takes its base snapshot: the batch
    # engine's stats tallies are part of its state.
    registry = observe_filter(filt)
    recorder = FlightRecorder(
        filt, max_chunks=8, incident_dir=tmp_path,
        config={"scenario": "injected-drift", "engine": engine},
    )
    monitor = HealthMonitor.for_criteria(
        CRITERIA, drift_window_items=512, shadow_sample_rate=None,
    )
    source = FilterServeSource(
        filt, monitor=monitor, registry=registry, recorder=recorder,
    )

    path, rule = drive_incident(recorder, source)
    assert path is not None, "drift injection must fire a rule"
    bundle = load_bundle(path)
    assert bundle["manifest"]["engine"] == engine
    assert bundle["manifest"]["reason"] == f"alert:{rule.name}"
    assert bundle["forensics"]["extra"]["alert"]["rule"] == rule.as_dict()

    result = replay_bundle(path)
    assert result.ok, result.mismatches
    assert result.engine == engine
    assert result.fingerprint_ok and result.signals_ok
    # Replaying a second time from the same bytes is just as identical:
    # the bundle is self-contained, not dependent on ambient state.
    again = replay_bundle(path)
    assert again.as_dict() == result.as_dict()


class TestRecordCli:
    def test_dump_replay_list_round_trip(self, tmp_path, capsys):
        incident_dir = tmp_path / "incidents"
        rc = cli_main([
            "record", "dump", "--dataset", "drift", "--scale", "20000",
            "--engine", "scalar", "--dir", str(incident_dir),
            "--max-chunks", "8", "--chunk-items", "2048",
        ])
        assert rc == 0
        bundles = [
            line for line in capsys.readouterr().out.splitlines()
            if line.endswith(".json.gz")
        ]
        assert bundles, "dump must print the bundle path(s)"

        rc = cli_main(["record", "replay", bundles[-1]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replay MATCH" in out

        rc = cli_main([
            "record", "replay", bundles[-1], "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["mismatches"] == []

        rc = cli_main(["record", "list", "--dir", str(incident_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason=explicit" in out

    def test_replay_exit_codes_are_honest(self, tmp_path, capsys):
        incident_dir = tmp_path / "incidents"
        assert cli_main([
            "record", "dump", "--dataset", "internet", "--scale", "8000",
            "--dir", str(incident_dir),
        ]) == 0
        bundle_path = [
            line for line in capsys.readouterr().out.splitlines()
            if line.endswith(".json.gz")
        ][-1]

        # Tampered stream -> exit 1 and a MISMATCH diagnosis.
        bundle = load_bundle(bundle_path)
        bundle["chunks"][0]["values"][0] += 1_000.0
        tampered = tmp_path / "tampered.json.gz"
        tampered.write_bytes(
            gzip.compress(json.dumps(bundle).encode(), mtime=0)
        )
        rc = cli_main(["record", "replay", str(tampered)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "replay MISMATCH" in out

        # Unreadable file -> exit 2 (usage-class failure, not a replay
        # verdict).
        garbage = tmp_path / "garbage.json.gz"
        garbage.write_bytes(b"nope")
        assert cli_main(["record", "replay", str(garbage)]) == 2

    def test_list_empty_dir(self, tmp_path, capsys):
        assert cli_main([
            "record", "list", "--dir", str(tmp_path / "none"),
        ]) == 0
        assert "no incident bundles" in capsys.readouterr().out
