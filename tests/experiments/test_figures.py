"""Smoke tests for every figure driver at tiny scale.

These verify each driver runs end-to-end and emits the series the paper
plots; the benchmarks run them at meaningful scale.
"""

import pytest

from repro.core.vectorized import BatchQuantileFilter
from repro.experiments import figures

TINY = dict(scale=1_500, seed=0)


class TestAccuracyFigures:
    def test_fig4(self):
        result = figures.fig4_accuracy_internet(
            memory_points=[4_096, 16_384],
            algorithms=("quantilefilter", "squad"),
            **TINY,
        )
        assert result.figure == "fig4"
        assert len(result.records) == 4
        assert {r.algorithm for r in result.records} == {
            "quantilefilter", "squad"
        }

    def test_fig5(self):
        result = figures.fig5_accuracy_cloud(
            memory_points=[8_192],
            algorithms=("quantilefilter",),
            **TINY,
        )
        assert result.figure == "fig5"
        assert result.records[0].dataset == "cloud"


class TestSweepFigures:
    def test_fig6_threshold(self):
        result = figures.fig6_threshold_sweep(
            thresholds=[100.0, 400.0], memory_points=[16_384], **TINY
        )
        thresholds = {r.extra["threshold"] for r in result.records}
        assert thresholds == {100.0, 400.0}
        for record in result.records:
            assert "abnormal_fraction" in record.extra

    def test_fig7_delta(self):
        result = figures.fig7_delta_sweep(
            deltas=(0.5, 0.95), memory_bytes=16_384,
            algorithms=("quantilefilter",), **TINY
        )
        assert {r.extra["delta"] for r in result.records} == {0.5, 0.95}

    def test_fig8_throughput(self):
        result = figures.fig8_throughput(
            memory_points=[16_384], algorithms=("quantilefilter",), **TINY
        )
        engines = {r.extra.get("engine") for r in result.records}
        assert engines == {"scalar", "batch"}
        for record in result.records:
            assert record.mops > 0

    def test_fig8_times_the_batch_engine_with_the_kernel_resolved(
        self, kernels_resolved_at
    ):
        calls = kernels_resolved_at(BatchQuantileFilter, "process")
        figures.fig8_throughput(
            memory_points=[16_384], algorithms=(), **TINY
        )
        assert calls == [{"qf"}]

    def test_fig9_fig10_params(self):
        result = figures.fig9_fig10_parameter_sweeps(
            depths=(1, 3), block_lengths=(2, 6), memory_bytes=16_384, **TINY
        )
        params = [(r.extra["parameter"], r.extra["value"]) for r in result.records]
        assert ("depth", 1) in params and ("block_length", 6) in params

    def test_fig11_memory_ratio(self):
        result = figures.fig11_memory_ratio(
            candidate_fractions=(0.2, 0.8), memory_bytes=16_384, **TINY
        )
        assert len(result.records) == 2
        for record in result.records:
            assert 0 < record.extra["candidate_fraction"] < 1

    def test_fig12_variants(self):
        result = figures.fig12_variants(
            memory_points=[16_384], include_squad=False, **TINY
        )
        assert len(result.records) == 6  # 3 strategies x 2 backends
        backends = {r.extra["backend"] for r in result.records}
        assert backends == {"cs", "cms"}


class TestDynamicModification:
    def test_fig13_epsilon(self):
        result = figures.dynamic_modification_figure(
            "epsilon", (60.0,), memory_bytes=16_384, **TINY
        )
        assert result.figure == "fig13"
        subsets = {r.extra["subset"] for r in result.records}
        assert subsets == {"modified-half", "unmodified-half"}
        algorithms = {r.algorithm for r in result.records}
        assert algorithms == {"qf-baseline", "qf-modified"}

    def test_fig14_delta(self):
        result = figures.dynamic_modification_figure(
            "delta", (0.5,), memory_bytes=16_384, **TINY
        )
        assert result.figure == "fig14"

    def test_fig15_threshold_wrapper(self):
        result = figures.fig15_modify_threshold(memory_bytes=16_384, **TINY)
        assert result.figure == "fig15"
        values = {r.extra["value"] for r in result.records}
        assert "unchanged" in values and len(values) == 5


class TestKeyResultTables:
    def test_space_saving_table(self):
        result = figures.fig4_accuracy_internet(
            memory_points=[4_096, 65_536],
            algorithms=("quantilefilter", "squad"),
            **TINY,
        )
        rows = figures.space_saving_table(result.records, f1_targets=(0.5,))
        assert len(rows) == 1
        assert rows[0]["baseline"] == "squad"

    def test_speed_ratio_table(self):
        result = figures.fig8_throughput(
            memory_points=[65_536],
            algorithms=("quantilefilter", "squad"),
            **TINY,
        )
        rows = figures.speed_ratio_table(result.records, min_f1=0.0)
        assert any(row["baseline"] == "squad" for row in rows)
        for row in rows:
            assert row["speedup"] is None or row["speedup"] > 0
