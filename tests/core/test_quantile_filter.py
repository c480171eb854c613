"""Tests for repro.core.quantile_filter — Algorithm 2 end to end."""

import random

import pytest

from repro.common.errors import ParameterError
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter, Report
from repro.detection.ground_truth import compute_ground_truth
from tests.conftest import make_two_class_stream


def big_filter(criteria, **kwargs) -> QuantileFilter:
    """A filter large enough that hash collisions are negligible."""
    defaults = dict(memory_bytes=256 * 1024, seed=1)
    defaults.update(kwargs)
    return QuantileFilter(criteria, **defaults)


class TestConstruction:
    def test_memory_budget_split(self):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=30.0)
        qf = QuantileFilter(crit, memory_bytes=100_000)
        assert qf.nbytes <= 100_000
        # Paper's 4:1 split: candidate ~80 % of the structure.
        assert 0.7 < qf.candidate.nbytes / qf.nbytes < 0.9

    def test_explicit_dimensions(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        qf = QuantileFilter(crit, num_buckets=8, vague_width=64)
        assert qf.candidate.num_buckets == 8
        assert qf.vague.width == 64

    def test_missing_both_sizings_raises(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        with pytest.raises(ParameterError):
            QuantileFilter(crit)

    def test_strategy_and_backend_selectable(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        qf = QuantileFilter(
            crit, memory_bytes=10_000, strategy="forceful", vague_backend="cms"
        )
        assert qf.strategy.name == "forceful"
        assert qf.vague.backend == "cms"


class TestReporting:
    def test_paper_figure1_example(self):
        """Fig. 1: user A reported at its third item, user B never."""
        crit = Criteria(delta=0.5, threshold=3.0, epsilon=0.0)
        qf = big_filter(crit)
        reports = []
        for key, value in [("A", 1.0), ("A", 5.0), ("B", 1.0),
                           ("A", 9.0), ("B", 1.0)]:
            report = qf.insert(key, value)
            if report:
                reports.append(report.key)
        assert "A" in reports
        assert "B" not in reports

    def test_outstanding_keys_detected_exactly(self, loose_criteria, py_random):
        items = make_two_class_stream(py_random, n_items=10_000, n_keys=100,
                                      n_hot=5, hot_value=500.0, cold_max=50.0)
        qf = big_filter(loose_criteria)
        for key, value in items:
            qf.insert(key, value)
        truth = compute_ground_truth(items, loose_criteria)
        assert qf.reported_keys == truth

    def test_report_metadata(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = big_filter(crit)
        report = qf.insert("hot", 100.0)
        assert isinstance(report, Report)
        assert report.key == "hot"
        assert report.item_index == 0
        assert report.source in ("candidate", "vague")
        assert report.qweight >= crit.report_threshold

    def test_epsilon_delays_reports(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=4.0)
        qf = big_filter(crit)
        outcomes = [qf.insert("k", 100.0) for _ in range(10)]
        first_report = next(i for i, r in enumerate(outcomes) if r)
        # Needs Qweight >= 8; each item adds +1 -> 8th item (index 7).
        assert first_report == 7

    def test_reset_after_report(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=2.0)
        qf = big_filter(crit)
        reports = [bool(qf.insert("k", 100.0)) for _ in range(20)]
        indices = [i for i, r in enumerate(reports) if r]
        gaps = [b - a for a, b in zip(indices, indices[1:])]
        assert gaps and all(gap == gaps[0] for gap in gaps)

    def test_on_report_callback(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        seen = []
        qf = QuantileFilter(crit, memory_bytes=8_192, on_report=seen.append)
        qf.insert("x", 99.0)
        assert len(seen) == 1 and seen[0].key == "x"

    def test_track_reports_disabled(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = QuantileFilter(crit, memory_bytes=8_192, track_reports=False)
        qf.insert("x", 99.0)
        assert qf.reported_keys == set()
        assert qf.report_count == 1


class TestQueryDeleteReset:
    def test_query_candidate_exact(self):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        qf = big_filter(crit)
        for _ in range(3):
            qf.insert("k", 500.0)  # +19 each
        qf.insert("k", 1.0)  # -1
        assert qf.query("k") == pytest.approx(3 * 19.0 - 1.0)

    def test_query_unknown_key_near_zero(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        qf = big_filter(crit)
        assert qf.query("never-seen") == pytest.approx(0.0)

    def test_delete_candidate(self):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        qf = big_filter(crit)
        qf.insert("k", 500.0)
        qf.delete("k")
        assert qf.query("k") == pytest.approx(0.0)

    def test_delete_vague_key(self):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        # Single bucket of size 1 forces overflow into the vague part.
        qf = QuantileFilter(crit, num_buckets=1, bucket_size=1,
                            vague_width=512, seed=2)
        qf.insert("a", 500.0)  # takes the candidate slot
        qf.insert("b", 1.0)    # negative weight -> stays in vague
        assert qf.query("b") == pytest.approx(-1.0)
        qf.delete("b")
        assert qf.query("b") == pytest.approx(0.0)

    def test_reset_clears_state_keeps_history(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = big_filter(crit)
        qf.insert("x", 99.0)
        qf.reset()
        assert qf.query("x") == pytest.approx(0.0)
        assert "x" in qf.reported_keys


class TestPerKeyCriteria:
    def test_override_per_insert(self):
        default = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        strict = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = big_filter(default)
        report = qf.insert("udp-flow", 50.0, criteria=strict)
        assert report is not None  # strict criteria trigger immediately

    def test_standing_key_criteria(self):
        default = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        strict = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = big_filter(default)
        qf.set_key_criteria("udp-flow", strict)
        assert qf.insert("udp-flow", 50.0) is not None
        assert qf.insert("tcp-flow", 50.0) is None

    def test_modify_criteria_resets_qweight(self):
        default = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        qf = big_filter(default)
        qf.insert("k", 500.0)
        assert qf.query("k") > 0
        qf.modify_criteria("k", default.with_updates(epsilon=2000.0))
        assert qf.query("k") == pytest.approx(0.0)

    def test_clear_key_criteria(self):
        default = Criteria(delta=0.95, threshold=100.0, epsilon=1000.0)
        strict = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = big_filter(default)
        qf.set_key_criteria("k", strict)
        qf.clear_key_criteria("k")
        assert qf.insert("k", 50.0) is None


class TestTwoPartMechanics:
    def test_candidate_hit_rate_high_with_few_keys(self, py_random):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=30.0)
        qf = big_filter(crit)
        for key, value in make_two_class_stream(py_random, n_items=5_000,
                                                n_keys=50):
            qf.insert(key, value)
        assert qf.candidate_hit_rate() > 0.9

    def test_vague_used_when_buckets_overflow(self, py_random):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=30.0)
        qf = QuantileFilter(crit, num_buckets=2, bucket_size=2,
                            vague_width=256, seed=3)
        for key, value in make_two_class_stream(py_random, n_items=3_000,
                                                n_keys=300):
            qf.insert(key, value)
        assert qf.vague_inserts > 0

    def test_swaps_promote_heavy_keys(self):
        """A hot key arriving late must displace cold candidates."""
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=30.0)
        qf = QuantileFilter(crit, num_buckets=1, bucket_size=2,
                            vague_width=1024, seed=4)
        # Fill the single bucket with two cold keys.
        for key in ("cold1", "cold2"):
            for _ in range(5):
                qf.insert(key, 1.0)
        # Hot key hammers in through the vague part.
        for _ in range(40):
            qf.insert("hot", 500.0)
        assert qf.swaps > 0
        assert "hot" in qf.reported_keys

    def test_memory_model_breakdown(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        qf = QuantileFilter(crit, memory_bytes=50_000)
        model = qf.memory_model()
        assert model.total_bytes == qf.nbytes
        assert set(model.breakdown()) == {"candidate", "vague"}

    def test_narrow_counters_do_not_crash(self, py_random):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=30.0)
        qf = QuantileFilter(crit, memory_bytes=4_096, counter_kind="int8",
                            seed=5)
        for key, value in make_two_class_stream(py_random, n_items=3_000):
            qf.insert(key, value)
        assert qf.items_processed == 3_000


class TestAccuracyUnderPressure:
    def test_precision_stays_high_at_tiny_memory(self, py_random):
        """The paper's signature: precision ~1 even when starved."""
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=10.0)
        items = make_two_class_stream(py_random, n_items=20_000, n_keys=2_000,
                                      n_hot=20, hot_value=500.0,
                                      cold_max=150.0)
        truth = compute_ground_truth(items, crit)
        qf = QuantileFilter(crit, memory_bytes=2_048, seed=6)
        for key, value in items:
            qf.insert(key, value)
        false_positives = qf.reported_keys - truth
        assert len(false_positives) <= max(1, len(truth) // 10)

    def test_recall_converges_with_memory(self, py_random):
        crit = Criteria(delta=0.95, threshold=200.0, epsilon=10.0)
        items = make_two_class_stream(py_random, n_items=20_000, n_keys=2_000,
                                      n_hot=20, hot_value=500.0,
                                      cold_max=150.0)
        truth = compute_ground_truth(items, crit)
        recalls = []
        for memory in (1_024, 65_536):
            qf = QuantileFilter(crit, memory_bytes=memory, seed=7)
            for key, value in items:
                qf.insert(key, value)
            recalls.append(len(qf.reported_keys & truth) / len(truth))
        assert recalls[-1] >= recalls[0]
        assert recalls[-1] == pytest.approx(1.0)


class TestTopCandidates:
    def test_ranking_and_limit(self):
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1e9)
        from repro.core.quantile_filter import QuantileFilter

        qf = QuantileFilter(crit, memory_bytes=64 * 1024, seed=1)
        for count, key in ((5, "a"), (2, "b"), (9, "c")):
            for _ in range(count):
                qf.insert(key, 500.0)  # +19 each
        top = qf.top_candidates(k=2)
        assert len(top) == 2
        qweights = [entry[2] for entry in top]
        assert qweights == sorted(qweights, reverse=True)
        assert qweights[0] == pytest.approx(9 * 19.0)

    def test_invalid_k(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        from repro.core.quantile_filter import QuantileFilter

        qf = QuantileFilter(crit, memory_bytes=8_192)
        with pytest.raises(ParameterError):
            qf.top_candidates(k=0)

    def test_empty_filter(self):
        crit = Criteria(delta=0.95, threshold=100.0)
        from repro.core.quantile_filter import QuantileFilter

        qf = QuantileFilter(crit, memory_bytes=8_192)
        assert qf.top_candidates(k=3) == []
