"""Unit tests for the CR3->shadow-CR3 hardware cache (Section IV)."""

import pytest

from repro.hw.cr3cache import CR3Cache


class TestCR3Cache:
    def test_miss_then_hit(self):
        cache = CR3Cache(4)
        assert cache.lookup(0x1000) is None
        cache.insert(0x1000, 0x9000)
        assert cache.lookup(0x1000) == 0x9000
        assert list(cache.iter_entries()) == [(0x1000, 0x9000)]

    def test_lru_eviction_at_capacity(self):
        cache = CR3Cache(2)
        cache.insert(1, 10)
        cache.insert(2, 20)
        cache.lookup(1)
        cache.insert(3, 30)
        assert cache.lookup(2) is None
        assert cache.lookup(1) == 10
        assert cache.lookup(3) == 30

    def test_iter_entries_is_lru_order_and_leaves_it_alone(self):
        cache = CR3Cache(4)
        cache.insert(1, 10)
        cache.insert(2, 20)
        cache.lookup(1)
        assert list(cache.iter_entries()) == [(2, 20), (1, 10)]
        assert list(cache.iter_entries()) == [(2, 20), (1, 10)]

    def test_invalidate(self):
        cache = CR3Cache(4)
        cache.insert(1, 10)
        cache.invalidate(1)
        assert cache.lookup(1) is None

    def test_invalidate_absent_is_noop(self):
        CR3Cache(4).invalidate(99)

    def test_flush(self):
        cache = CR3Cache(4)
        cache.insert(1, 10)
        cache.insert(2, 20)
        cache.flush()
        assert cache.lookup(1) is None
        assert cache.lookup(2) is None

    def test_reinsert_updates(self):
        cache = CR3Cache(4)
        cache.insert(1, 10)
        cache.insert(1, 11)
        assert cache.lookup(1) == 11

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CR3Cache(0)
