"""Edge-case and failure-injection tests for QuantileFilter.

These pin behaviour at the corners: engineered fingerprint collisions,
counter saturation under adversarial streams, exact-threshold Qweights,
degenerate dimensions, and unusual value inputs.
"""

import math
import random

import pytest

from repro.common.hashing import FingerprintHasher, canonical_key, mix64
from repro.core.criteria import Criteria
from repro.core.quantile_filter import QuantileFilter


def find_colliding_keys(qf: QuantileFilter, limit: int = 200_000):
    """Two distinct int keys sharing fingerprint AND candidate bucket."""
    seen = {}
    for key in range(limit):
        key_int, fp, bucket = qf._locate(key)
        signature = (fp, bucket)
        if signature in seen and seen[signature] != key:
            return seen[signature], key
        seen[signature] = key
    raise AssertionError("no colliding pair found; enlarge the search")


class TestFingerprintCollision:
    def test_colliding_keys_share_one_qweight(self):
        """The documented failure mode of fingerprinting: two keys with
        the same (fp, bucket) are indistinguishable and merge Qweights.
        With 16-bit fingerprints this needs ~2^16 x buckets keys; the
        test engineers it deliberately."""
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1e9)
        qf = QuantileFilter(crit, num_buckets=2, bucket_size=4,
                            vague_width=64, fp_bits=4, seed=1)
        a, b = find_colliding_keys(qf, limit=5_000)
        qf.insert(a, 500.0)   # +19
        qf.insert(b, 500.0)   # +19 into the SAME entry
        assert qf.query(a) == pytest.approx(38.0)
        assert qf.query(a) == qf.query(b)

    def test_collision_probability_matches_width(self):
        """16-bit fingerprints: <0.01 % pairwise collisions (the paper's
        quote), verified by birthday counting."""
        hasher = FingerprintHasher(bits=16, seed=1)
        fps = [hasher.fingerprint(canonical_key(k)) for k in range(1_000)]
        pairs = 1_000 * 999 / 2
        collisions = pairs * (1 / (1 << 16))
        observed = len(fps) - len(set(fps))
        # Expected ~7.6 colliding values; allow generous slack.
        assert observed < 30


class TestSaturationStress:
    def _pinned_filter(self) -> QuantileFilter:
        """A filter whose only candidate slot is unbeatable, so every
        other key is forced through the int8 vague part forever."""
        crit = Criteria(delta=0.95, threshold=100.0, epsilon=1e9)
        qf = QuantileFilter(crit, num_buckets=1, bucket_size=1,
                            vague_width=2, counter_kind="int8", seed=2)
        qf.candidate.set_entry(0, 0, fingerprint=1, qweight=1e18)
        return qf

    def test_int8_vague_survives_hot_pileup(self):
        """Hammer one vague counter far past +127; saturation must clamp
        (not wrap to -128) and the filter must keep functioning."""
        qf = self._pinned_filter()
        for _ in range(500):
            qf.insert("overflow", 500.0)  # vague-bound, +19 each
        estimate = qf.query("overflow")
        assert -128 <= estimate <= 127  # clamped at type range, no wrap
        assert estimate > 0             # crucially not flipped negative
        assert qf.items_processed == 500

    def test_saturation_fraction_reported(self):
        qf = self._pinned_filter()
        for _ in range(500):
            qf.insert("overflow", 500.0)
        assert qf.vague.sketch.counters.saturation_fraction() > 0.0


class TestExactThreshold:
    def test_report_at_exactly_threshold(self):
        """Qweight == epsilon/(1-delta) must report (the lemma's >=)."""
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=2.0)
        # threshold = 4; each above-T item adds exactly +1.
        qf = QuantileFilter(crit, memory_bytes=16 * 1024, seed=3)
        outcomes = [qf.insert("k", 99.0) for _ in range(4)]
        assert outcomes[:3] == [None, None, None]
        assert outcomes[3] is not None

    def test_one_below_threshold_does_not_report(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=2.0)
        qf = QuantileFilter(crit, memory_bytes=16 * 1024, seed=3)
        for _ in range(3):
            assert qf.insert("k", 99.0) is None
        assert qf.query("k") == pytest.approx(3.0)


class TestDegenerateDimensions:
    def test_single_bucket_single_slot_single_column(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=0.0)
        qf = QuantileFilter(crit, num_buckets=1, bucket_size=1,
                            vague_width=1, depth=1, seed=4)
        rng = random.Random(5)
        for _ in range(500):
            qf.insert(rng.randrange(20), rng.uniform(0, 20))
        assert qf.items_processed == 500  # no crash at minimum size

    def test_tiny_memory_budget(self):
        crit = Criteria(delta=0.5, threshold=10.0)
        qf = QuantileFilter(crit, memory_bytes=16)
        qf.insert("k", 99.0)
        assert qf.nbytes >= 1


class TestUnusualValues:
    def test_infinite_value_counts_as_above(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=1e9)
        qf = QuantileFilter(crit, memory_bytes=16 * 1024, seed=6)
        qf.insert("k", math.inf)
        assert qf.query("k") == pytest.approx(crit.positive_weight)

    def test_negative_infinity_counts_as_below(self):
        crit = Criteria(delta=0.5, threshold=10.0, epsilon=1e9)
        qf = QuantileFilter(crit, memory_bytes=16 * 1024, seed=6)
        qf.insert("k", -math.inf)
        assert qf.query("k") == pytest.approx(-1.0)

    def test_negative_threshold_supported(self):
        crit = Criteria(delta=0.5, threshold=-5.0, epsilon=0.0)
        qf = QuantileFilter(crit, memory_bytes=16 * 1024, seed=7)
        report = qf.insert("k", -1.0)  # -1 > -5: above threshold
        assert report is not None


class TestManyKeysChurn:
    def test_key_churn_does_not_leak_candidate_slots(self):
        """A million distinct one-shot keys must not wedge the candidate
        part: occupancy stays <= 1 and hot keys still win through."""
        crit = Criteria(delta=0.9, threshold=100.0, epsilon=3.0)
        qf = QuantileFilter(crit, memory_bytes=4_096, seed=8)
        rng = random.Random(9)
        for i in range(20_000):
            qf.insert(f"oneshot-{i}", rng.uniform(0, 50))
            if i % 4 == 0:
                qf.insert("persistent-hot", 500.0)
        assert qf.candidate.occupancy() <= 1.0
        assert "persistent-hot" in qf.reported_keys
