"""Tests for the experiment-matrix runner (expansion, cells, bands)."""

import pytest

from repro.common.errors import ParameterError
from repro.core.vectorized import BatchQuantileFilter
from repro.detection.threshold import ThresholdController
from repro.experiments.matrix import (
    BASELINES,
    CellSpec,
    band_accuracy,
    expand_cells,
    load_matrix_config,
    run_cell,
)
from repro.experiments.runstore import SCHEMA_VERSION
from repro.parallel.pipeline import ParallelPipeline
from repro.streams.model import Trace


def tiny_config(**overrides):
    config = {
        "matrix": {"name": "t", "seed": 0, "band_fraction": 0.25,
                   "shadow_sample_rate": 1},
        "axes": {
            "algorithms": ["quantilefilter", "squad"],
            "engines": ["scalar", "batch"],
            "workloads": ["internet", "bursty"],
            "memory_bytes": [16384],
            "scales": [1500],
        },
        "pipeline": {"shards": 2, "chunk_items": 512},
    }
    for section, values in overrides.items():
        config.setdefault(section, {}).update(values)
    return config


def tiny_cell(**overrides):
    params = dict(
        workload="internet", algorithm="quantilefilter", engine="scalar",
        memory_bytes=16384, scale=1500, seed=0, threshold=300.0,
        delta=0.95, epsilon=30.0, band_fraction=0.25,
        shadow_sample_rate=1, shards=2, chunk_items=512,
    )
    params.update(overrides)
    return CellSpec(**params)


class TestExpansion:
    def test_cross_product_with_baseline_collapse(self):
        cells = expand_cells(tiny_config())
        # quantilefilter x 2 engines + squad (scalar only), x 2 workloads
        assert len(cells) == 6
        ids = {cell.cell_id for cell in cells}
        assert "internet/quantilefilter/batch/m16384/n1500" in ids
        assert "internet/squad/scalar/m16384/n1500" in ids
        assert not any("/squad/batch/" in cell_id for cell_id in ids)

    def test_baselines_never_sweep_engines(self):
        config = tiny_config()
        config["axes"]["engines"] = [
            "scalar", "batch", "pipeline-shm", "threads"
        ]
        for cell in expand_cells(config):
            if cell.algorithm != "quantilefilter":
                assert cell.engine == "scalar"

    def test_parallel_engines_without_quantilefilter_fail_fast(self):
        # A config whose engine axis can never apply should error with a
        # clear message, not silently collapse every cell to scalar.
        config = tiny_config()
        config["axes"]["algorithms"] = ["squad"]
        config["axes"]["engines"] = ["threads"]
        with pytest.raises(ParameterError, match="quantilefilter"):
            expand_cells(config)

    def test_controllers_skip_parallel_engines(self):
        config = tiny_config()
        config["axes"]["algorithms"] = ["quantilefilter"]
        config["axes"]["engines"] = ["batch", "pipeline-shm", "threads"]
        config["axes"]["controllers"] = ["fixed", "p2"]
        combos = {
            (c.engine, c.controller) for c in expand_cells(config)
        }
        assert ("batch", "p2") in combos
        assert ("pipeline-shm", "p2") not in combos
        assert ("threads", "p2") not in combos
        assert ("threads", "fixed") in combos

    def test_threshold_defaults_per_workload(self):
        config = tiny_config()
        config["axes"]["workloads"] = ["internet", "cloud"]
        thresholds = {
            cell.workload: cell.threshold for cell in expand_cells(config)
        }
        assert thresholds == {"internet": 300.0, "cloud": 20.0}

    def test_criteria_overrides(self):
        config = tiny_config(criteria={"threshold": 123.0, "delta": 0.9})
        cell = expand_cells(config)[0]
        assert cell.threshold == 123.0
        assert cell.delta == 0.9
        assert cell.criteria().threshold == 123.0

    def test_unknown_axis_values_rejected(self):
        for section, value in (
            ("workloads", ["netflix"]),
            ("engines", ["gpu"]),
            ("algorithms", ["llm"]),
        ):
            config = tiny_config()
            config["axes"][section] = value
            with pytest.raises(ParameterError):
                expand_cells(config)

    def test_empty_axes_use_defaults(self):
        cells = expand_cells({})
        assert len(cells) == 1
        assert cells[0].workload == "internet"
        assert cells[0].algorithm == "quantilefilter"


class TestConfigLoading:
    def test_json_config(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"axes": {"workloads": ["cloud"]}}')
        assert load_matrix_config(path)["axes"]["workloads"] == ["cloud"]

    def test_toml_config(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841  (3.11+)
        path = tmp_path / "m.toml"
        path.write_text('[axes]\nworkloads = ["cloud"]\n')
        assert load_matrix_config(path)["axes"]["workloads"] == ["cloud"]

    def test_bad_json_raises_parameter_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ParameterError):
            load_matrix_config(path)

    def test_shipped_configs_expand(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "benchmarks" / "matrix"
        smoke = load_matrix_config(root / "smoke.json")
        assert len(expand_cells(smoke)) == 3  # the CI smoke matrix
        try:
            import tomllib  # noqa: F401
        except ModuleNotFoundError:
            return
        default = load_matrix_config(root / "default.toml")
        cells = expand_cells(default)
        # 6 workloads x (4 qf engines + 3 baselines) x 3 memory points
        # fixed cells, plus the controllers axis (p2, kll) rerunning
        # the scalar/batch quantilefilter cells adaptively.
        fixed = [c for c in cells if c.controller == "fixed"]
        adaptive = [c for c in cells if c.controller != "fixed"]
        assert len(fixed) == 6 * 7 * 3
        assert len(adaptive) == 6 * 2 * 3 * 2
        assert all(c.algorithm == "quantilefilter" for c in adaptive)


class TestRunCell:
    def test_record_shape(self):
        record = run_cell(tiny_cell())
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["cell_id"] == "internet/quantilefilter/scalar/m16384/n1500"
        assert record["items"] == 1500
        assert record["cell"]["workload"] == "internet"
        assert set(record["timing"]) == {"wall_seconds", "items_per_s"}
        accuracy = record["accuracy"]
        assert 0.0 <= accuracy["overall"]["f1"] <= 1.0
        assert 0.0 <= accuracy["band"]["f1"] <= 1.0
        assert accuracy["band"]["band_keys"] >= 0
        assert accuracy["overall"]["precision_ci"][0] <= \
            accuracy["overall"]["precision"]

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_engines_agree_on_accuracy(self, engine):
        record = run_cell(tiny_cell(engine=engine))
        assert record["accuracy"]["overall"]["recall"] >= 0.9

    def test_baseline_algorithms_run(self):
        for algorithm in BASELINES[:2]:  # squad, sketchpolymer
            record = run_cell(tiny_cell(algorithm=algorithm))
            assert record["reported_keys"] >= 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            run_cell(tiny_cell(engine="gpu"))

    def test_threads_engine_runs_and_matches_batch(self):
        threaded = run_cell(tiny_cell(engine="threads"))
        batch = run_cell(tiny_cell(engine="batch"))
        assert threaded["reported_keys"] == batch["reported_keys"]
        # One shared structure gets the whole budget (not split per
        # shard the way pipeline-shm divides it).
        assert threaded["actual_bytes"] > 0

    @pytest.mark.parametrize("engine, controller, entry, kernels", [
        ("batch", "fixed", (BatchQuantileFilter, "process"), {"qf"}),
        ("pipeline-shm", "fixed", (ParallelPipeline, "start"), {"qf"}),
        ("threads", "fixed", (ParallelPipeline, "start"), {"qf"}),
        ("scalar", "p2", (ThresholdController, "observe_many"), {"p2"}),
    ])
    def test_cells_are_timed_with_their_kernels_resolved(
        self, engine, controller, entry, kernels, kernels_resolved_at
    ):
        calls = kernels_resolved_at(*entry)
        run_cell(tiny_cell(engine=engine, controller=controller))
        assert calls
        assert all(kernels <= resolved for resolved in calls)

    def test_controlled_threads_cell_rejected(self):
        with pytest.raises(ParameterError, match="in-process engines"):
            run_cell(tiny_cell(engine="threads", controller="p2"))

    def test_build_quantilefilter_rejects_unknown_engine(self):
        from repro.experiments.matrix import _build_quantilefilter

        with pytest.raises(ParameterError, match="not supported"):
            _build_quantilefilter(tiny_cell(engine="threads"))


class TestBandAccuracy:
    def test_band_keys_are_the_threshold_sensitive_ones(self):
        # Keys: well above T (600), inside the band (310), well below (50).
        import numpy as np

        keys = np.repeat(np.array([1, 2, 3], dtype=np.int64), 200)
        values = np.concatenate([
            np.full(200, 600.0), np.full(200, 310.0), np.full(200, 50.0),
        ])
        trace = Trace(keys=keys, values=values, name="synthetic")
        spec = tiny_cell(band_fraction=0.25)  # band = [225, 375]
        result = band_accuracy(spec, trace, reported={1, 2})
        # Key 2 (310) flips between T*0.75 and T*1.25; key 1 (600) and
        # key 3 (50) do not.
        assert result["band"]["band_keys"] == 1
        assert result["band"]["tp"] == 1
        assert result["band"]["f1"] == 1.0
        assert result["overall"]["tp"] == 2

    def test_band_miss_is_scored(self):
        import numpy as np

        keys = np.repeat(np.array([1, 2], dtype=np.int64), 200)
        values = np.concatenate([np.full(200, 600.0), np.full(200, 310.0)])
        trace = Trace(keys=keys, values=values, name="synthetic")
        result = band_accuracy(tiny_cell(), trace, reported={1})
        assert result["band"]["fn"] == 1  # missed the near-T key
        assert result["band"]["f1"] == 0.0
        assert result["overall"]["recall"] == 0.5

    def test_sampled_shadow_restricts_both_sides(self):
        record = run_cell(tiny_cell(shadow_sample_rate=4))
        accuracy = record["accuracy"]
        assert accuracy["shadow_sample_rate"] == 4
        assert accuracy["overall"]["sampled_items"] < record["items"]


class TestDeterministicSeedAudit:
    """Satellite: every registered cell twice ⇒ identical records.

    This is the RNG-leak tripwire: any hidden nondeterminism in
    ``streams/`` (trace generation) or ``experiments/`` (detector
    seeding, shadow sampling, report collection) shows up as a
    fingerprint mismatch between two executions of the same cell.
    """

    AUDIT_SCALE = 1200

    def _audit_cells(self):
        config = tiny_config()
        config["axes"].update(
            workloads=[
                "internet", "cloud", "zipf-large", "zipf-small",
                "drift", "bursty",
            ],
            engines=["scalar", "batch"],
            algorithms=["quantilefilter", "squad"],
            scales=[self.AUDIT_SCALE],
        )
        return expand_cells(config)

    def test_every_cell_is_deterministic(self):
        from repro.experiments.runstore import record_fingerprint

        cells = self._audit_cells()
        assert len(cells) == 6 * 3
        for spec in cells:
            first = record_fingerprint(run_cell(spec))
            second = record_fingerprint(run_cell(spec))
            assert first == second, f"nondeterministic cell: {spec.cell_id}"

    def test_pipeline_engine_is_deterministic(self):
        # The process-parallel engine reports over nondeterministic
        # interleavings; the persisted record (dedup counts + shadow
        # accuracy) must still be identical run to run.
        from repro.experiments.runstore import record_fingerprint

        spec = tiny_cell(engine="pipeline-shm", scale=self.AUDIT_SCALE)
        assert record_fingerprint(run_cell(spec)) == \
            record_fingerprint(run_cell(spec))

    def test_seed_actually_matters(self):
        # The audit would be vacuous if the fingerprint ignored content.
        from repro.experiments.runstore import record_fingerprint

        base = tiny_cell(scale=self.AUDIT_SCALE)
        other = tiny_cell(scale=self.AUDIT_SCALE, seed=7)
        assert record_fingerprint(run_cell(base)) != \
            record_fingerprint(run_cell(other))
