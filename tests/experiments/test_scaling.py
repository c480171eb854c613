"""Tests for repro.experiments.scaling."""

import pytest

from repro.experiments import scaling
from repro.experiments.config import build_trace, default_criteria_for
from repro.experiments.harness import ground_truth_for
from repro.experiments.scaling import (
    minimal_budget_for_f1,
    parallel_scaling_study,
    scaling_study,
)
from repro.metrics.accuracy import score_sets
from repro.parallel.pipeline import ParallelPipeline
from repro.parallel.sharded import ShardedQuantileFilter


class TestParallelScalingStudy:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_both_backends_report_the_same_keys(self, engine, monkeypatch):
        reported = []

        def score(keys, truth):
            reported.append(set(keys))
            return score_sets(keys, truth)

        monkeypatch.setattr(scaling, "score_sets", score)
        for backend, processes in (("inprocess", False), ("processes", True)):
            result = parallel_scaling_study(
                scale=3_000, max_shards=2, engine=engine,
                processes=processes,
            )
            assert [r.extra["shards"] for r in result.records] == [1, 2]
            assert {r.extra["backend"] for r in result.records} == {backend}
        inprocess, processes = reported[:2], reported[2:]
        assert inprocess == processes
        assert all(inprocess)

    @pytest.mark.parametrize("processes, entry", [
        (False, (ShardedQuantileFilter, "process")),
        (True, (ParallelPipeline, "start")),
    ], ids=["inprocess", "processes"])
    def test_runs_are_timed_with_the_kernel_resolved(
        self, processes, entry, kernels_resolved_at
    ):
        calls = kernels_resolved_at(*entry)
        parallel_scaling_study(scale=2_000, max_shards=2, processes=processes)
        assert len(calls) == 2
        assert all("qf" in kernels for kernels in calls)


class TestMinimalBudget:
    def test_finds_a_qualifying_budget(self):
        trace = build_trace("internet", scale=4_000, seed=0)
        criteria = default_criteria_for("internet")
        truth = ground_truth_for(trace, criteria)
        record = minimal_budget_for_f1(
            trace, criteria, truth, f1_target=0.8, dataset="internet",
        )
        assert record is not None
        assert record.score.f1 >= 0.8

    def test_unreachable_target_returns_none(self):
        trace = build_trace("internet", scale=2_000, seed=0)
        criteria = default_criteria_for("internet")
        truth = ground_truth_for(trace, criteria)
        # Cap the scan below any workable budget.
        record = minimal_budget_for_f1(
            trace, criteria, truth, f1_target=1.01,  # impossible target
            dataset="internet", high=1_024,
        )
        assert record is None

    def test_budget_is_power_of_two_multiple_of_low(self):
        trace = build_trace("internet", scale=4_000, seed=0)
        criteria = default_criteria_for("internet")
        truth = ground_truth_for(trace, criteria)
        record = minimal_budget_for_f1(
            trace, criteria, truth, f1_target=0.8, dataset="internet",
            low=256,
        )
        assert record.memory_bytes % 256 == 0
        budget = record.memory_bytes // 256
        assert budget & (budget - 1) == 0  # power of two


class TestScalingStudy:
    def test_rows_annotated(self):
        result = scaling_study(
            dataset="internet", scales=(3_000, 6_000), f1_target=0.8
        )
        assert result.figure == "scaling-study"
        assert len(result.records) == 2
        for record in result.records:
            assert record.extra["scale"] in (3_000, 6_000)
            assert record.extra["distinct_keys"] > 0
            assert record.extra["bytes_per_key"] > 0

    def test_budgets_non_decreasing(self):
        result = scaling_study(
            dataset="internet", scales=(3_000, 12_000), f1_target=0.8
        )
        budgets = [
            r.memory_bytes
            for r in sorted(result.records, key=lambda r: r.extra["scale"])
        ]
        assert budgets == sorted(budgets)
