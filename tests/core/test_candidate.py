"""Tests for repro.core.candidate."""

import pytest

from repro.common.errors import ParameterError
from repro.core.candidate import CandidatePart


class TestSlots:
    def test_starts_empty(self):
        part = CandidatePart(num_buckets=4, bucket_size=3)
        assert part.entry_count() == 0
        assert part.occupancy() == 0.0
        assert part.find(0, 17) is None

    def test_insert_and_find(self):
        part = CandidatePart(num_buckets=2, bucket_size=2)
        slot = part.free_slot(0)
        part.set_entry(0, slot, fingerprint=17, qweight=5.0)
        assert part.find(0, 17) == slot
        assert part.get_qweight(0, slot) == 5.0

    def test_find_scoped_to_bucket(self):
        part = CandidatePart(num_buckets=2, bucket_size=2)
        part.set_entry(0, 0, 17, 1.0)
        assert part.find(1, 17) is None

    def test_free_slot_none_when_full(self):
        part = CandidatePart(num_buckets=1, bucket_size=2)
        part.set_entry(0, 0, 1, 0.0)
        part.set_entry(0, 1, 2, 0.0)
        assert part.free_slot(0) is None

    def test_add_qweight(self):
        part = CandidatePart(num_buckets=1, bucket_size=1)
        part.set_entry(0, 0, 5, 10.0)
        assert part.add_qweight(0, 0, -1.0) == pytest.approx(9.0)
        assert part.add_qweight(0, 0, 19.0) == pytest.approx(28.0)

    def test_reset_qweight_keeps_entry(self):
        part = CandidatePart(num_buckets=1, bucket_size=1)
        part.set_entry(0, 0, 5, 10.0)
        part.reset_qweight(0, 0)
        assert part.find(0, 5) == 0
        assert part.get_qweight(0, 0) == 0.0

    def test_evict_returns_and_clears(self):
        part = CandidatePart(num_buckets=1, bucket_size=2)
        part.set_entry(0, 1, 9, -2.5)
        fp, qw = part.evict(0, 1)
        assert (fp, qw) == (9, -2.5)
        assert part.find(0, 9) is None
        assert part.free_slot(0) is not None


class TestMinEntry:
    def test_min_among_occupied(self):
        part = CandidatePart(num_buckets=1, bucket_size=3)
        part.set_entry(0, 0, 1, 5.0)
        part.set_entry(0, 1, 2, -3.0)
        part.set_entry(0, 2, 3, 1.0)
        slot, qw = part.min_entry(0)
        assert slot == 1 and qw == -3.0

    def test_empty_slots_ignored(self):
        part = CandidatePart(num_buckets=1, bucket_size=3)
        part.set_entry(0, 2, 3, 7.0)  # empties have qw 0 < 7 but no fp
        slot, qw = part.min_entry(0)
        assert slot == 2 and qw == 7.0

    def test_empty_bucket_raises(self):
        part = CandidatePart(num_buckets=1, bucket_size=2)
        with pytest.raises(ParameterError):
            part.min_entry(0)


class TestSizing:
    def test_nbytes_paper_layout(self):
        # 16-bit fp + 32-bit counter = 6 bytes per slot.
        part = CandidatePart(num_buckets=10, bucket_size=6, fp_bits=16)
        assert part.nbytes == 10 * 6 * 6

    def test_clear(self):
        part = CandidatePart(num_buckets=2, bucket_size=2)
        part.set_entry(1, 1, 5, 3.0)
        part.clear()
        assert part.entry_count() == 0

    def test_occupancy(self):
        part = CandidatePart(num_buckets=2, bucket_size=2)
        part.set_entry(0, 0, 1, 0.0)
        assert part.occupancy() == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            CandidatePart(num_buckets=0)
        with pytest.raises(ParameterError):
            CandidatePart(num_buckets=1, bucket_size=0)
        with pytest.raises(ParameterError):
            CandidatePart(num_buckets=1, fp_bits=0)
