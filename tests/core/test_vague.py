"""Tests for repro.core.vague."""

import pytest

from repro.common.errors import ParameterError
from repro.core.vague import VaguePart, vague_key
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch


class TestVagueKey:
    def test_deterministic(self):
        assert vague_key(17, 3) == vague_key(17, 3)

    def test_fingerprint_and_bucket_both_matter(self):
        assert vague_key(17, 3) != vague_key(18, 3)
        assert vague_key(17, 3) != vague_key(17, 4)

    def test_spread(self):
        keys = {vague_key(fp, b) for fp in range(100) for b in range(100)}
        assert len(keys) == 10_000


class TestVaguePart:
    def test_cs_backend_default(self):
        part = VaguePart(depth=3, width=64)
        assert isinstance(part.sketch, CountSketch)
        assert part.backend == "cs"

    def test_cms_backend(self):
        part = VaguePart(depth=3, width=64, backend="cms")
        assert isinstance(part.sketch, CountMinSketch)

    def test_unknown_backend_raises(self):
        with pytest.raises(ParameterError):
            VaguePart(backend="bloom")

    def test_update_estimate_delete_roundtrip(self):
        part = VaguePart(depth=3, width=512, seed=1)
        vkey = vague_key(42, 7)
        part.update(vkey, 19.0)
        part.update(vkey, -1.0)
        assert part.estimate(vkey) == pytest.approx(18.0)
        part.delete(vkey, 18.0)
        assert part.estimate(vkey) == pytest.approx(0.0)

    def test_fused_update_and_estimate(self):
        part = VaguePart(depth=3, width=512, seed=2)
        vkey = vague_key(1, 1)
        assert part.update_and_estimate(vkey, 19.0) == pytest.approx(19.0)
        assert part.update_and_estimate(vkey, -1.0) == pytest.approx(18.0)

    def test_clear(self):
        part = VaguePart(depth=2, width=64, seed=3)
        part.update(vague_key(5, 5), 10.0)
        part.clear()
        assert part.estimate(vague_key(5, 5)) == 0.0

    def test_properties(self):
        part = VaguePart(depth=4, width=128, counter_kind="int16")
        assert part.depth == 4
        assert part.width == 128
        assert part.nbytes == 4 * 128 * 2
