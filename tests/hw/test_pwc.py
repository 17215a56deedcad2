"""Unit tests for the page-walk caches."""

import pytest

from repro.hw.pwc import PWC_GUEST, PWC_SHADOW, PageWalkCache


@pytest.fixture
def pwc():
    return PageWalkCache(entries_per_table=4)


VA = (3 << 39) | (7 << 30) | (11 << 21) | (13 << 12)


class TestLookupInsert:
    def test_empty_misses(self, pwc):
        assert pwc.lookup(1, VA) is None
        assert list(pwc.iter_entries()) == []

    def test_deepest_hit_wins(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        pwc.insert(1, VA, depth=3, frame=300, mode=PWC_SHADOW)
        skipped, frame, mode = pwc.lookup(1, VA)
        assert (skipped, frame) == (3, 300)

    def test_prefix_sharing(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        # Same top-level index, different low bits: still a depth-1 hit.
        other = (3 << 39) | (9 << 30)
        assert pwc.lookup(1, other) == (1, 100, PWC_SHADOW)

    def test_prefix_mismatch(self, pwc):
        pwc.insert(1, VA, depth=2, frame=200, mode=PWC_SHADOW)
        other = (3 << 39) | (8 << 30) | (11 << 21)
        assert pwc.lookup(1, other) is None

    def test_mode_bit_round_trips(self, pwc):
        pwc.insert(1, VA, depth=2, frame=55, mode=PWC_GUEST)
        assert pwc.lookup(1, VA)[2] == PWC_GUEST

    def test_asid_isolation(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        assert pwc.lookup(2, VA) is None

    def test_depth_bounds_ignored(self, pwc):
        pwc.insert(1, VA, depth=0, frame=1, mode=PWC_SHADOW)
        pwc.insert(1, VA, depth=4, frame=1, mode=PWC_SHADOW)
        assert pwc.lookup(1, VA) is None


class TestReplacementInvalidation:
    def test_lru_capacity(self, pwc):
        for i in range(6):
            pwc.insert(1, i << 39, depth=1, frame=i, mode=PWC_SHADOW)
        hits = sum(1 for i in range(6) if pwc.lookup(1, i << 39) is not None)
        assert hits == 4

    def test_invalidate_prefix(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        pwc.insert(1, VA, depth=2, frame=200, mode=PWC_SHADOW)
        pwc.invalidate_prefix(1, VA)
        assert pwc.lookup(1, VA) is None

    def test_invalidate_asid(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        pwc.insert(2, VA, depth=1, frame=100, mode=PWC_SHADOW)
        pwc.invalidate_asid(1)
        assert pwc.lookup(1, VA) is None
        assert pwc.lookup(2, VA) is not None

    def test_flush(self, pwc):
        pwc.insert(1, VA, depth=1, frame=100, mode=PWC_SHADOW)
        pwc.flush()
        assert pwc.lookup(1, VA) is None


class TestIterEntries:
    def test_lru_order_per_table_and_left_alone(self, pwc):
        pwc.insert(1, VA, depth=2, frame=200, mode=PWC_SHADOW)
        pwc.insert(2, VA, depth=2, frame=201, mode=PWC_GUEST)
        pwc.lookup(1, VA)  # the asid-1 entry becomes most recent
        entries = [(depth, key[0], value)
                   for depth, key, value in pwc.iter_entries()]
        assert entries == [(2, 2, (201, PWC_GUEST)), (2, 1, (200, PWC_SHADOW))]
        assert [(d, k[0], v) for d, k, v in pwc.iter_entries()] == entries
