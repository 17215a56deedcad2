"""Unit tests for the set-associative TLB."""

import pytest

from repro.hw.tlb import TLB, TLBEntry


def entry(asid, vpn, frame=0, writable=True, dirty=True):
    return TLBEntry(asid=asid, vpn=vpn, frame=frame, page_shift=12,
                    writable=writable, dirty=dirty)


@pytest.fixture
def tlb():
    return TLB(entries=16, ways=4, page_shift=12)


class TestLookupInsert:
    def test_miss_then_hit(self, tlb):
        assert tlb.lookup(1, 0x1000) is None
        tlb.insert(entry(1, 1, frame=42))
        hit = tlb.lookup(1, 0x1000)
        assert hit.frame == 42

    def test_asid_isolation(self, tlb):
        tlb.insert(entry(1, 1))
        assert tlb.lookup(2, 0x1000) is None

    def test_page_offset_irrelevant(self, tlb):
        tlb.insert(entry(1, 1, frame=9))
        assert tlb.lookup(1, 0x1FFF).frame == 9

    def test_2m_page_shift(self):
        tlb = TLB(entries=8, ways=4, page_shift=21)
        tlb.insert(TLBEntry(1, 1, 512, 21, True, True))
        assert tlb.lookup(1, (1 << 21) + 12345).frame == 512

    def test_reinsert_updates(self, tlb):
        tlb.insert(entry(1, 1, frame=1))
        tlb.insert(entry(1, 1, frame=2))
        assert tlb.lookup(1, 0x1000).frame == 2


class TestReplacement:
    def test_lru_eviction_within_set(self):
        tlb = TLB(entries=4, ways=2, page_shift=12)  # 2 sets
        # vpns 0, 2, 4 all land in set 0.
        tlb.insert(entry(1, 0))
        tlb.insert(entry(1, 2))
        tlb.lookup(1, 0)  # touch vpn 0, making vpn 2 the LRU
        tlb.insert(entry(1, 4))
        assert tlb.lookup(1, 0) is not None
        assert tlb.lookup(1, 2 << 12) is None
        assert sorted(e.vpn for e in tlb.iter_entries()) == [0, 4]

    def test_different_sets_do_not_conflict(self):
        tlb = TLB(entries=4, ways=2, page_shift=12)
        tlb.insert(entry(1, 0))
        tlb.insert(entry(1, 1))  # set 1
        tlb.insert(entry(1, 2))  # set 0
        assert tlb.lookup(1, 0) is not None
        assert tlb.lookup(1, 1 << 12) is not None

    def test_occupancy_bounded(self, tlb):
        for vpn in range(100):
            tlb.insert(entry(1, vpn))
        assert len(list(tlb.iter_entries())) == 16


class TestInvalidation:
    def test_invalidate_page(self, tlb):
        tlb.insert(entry(1, 1))
        tlb.invalidate_page(1, 0x1000)
        assert tlb.lookup(1, 0x1000) is None
        assert list(tlb.iter_entries()) == []

    def test_invalidate_page_wrong_asid_noop(self, tlb):
        tlb.insert(entry(1, 1))
        tlb.invalidate_page(2, 0x1000)
        assert tlb.lookup(1, 0x1000) is not None

    def test_invalidate_asid(self, tlb):
        tlb.insert(entry(1, 1))
        tlb.insert(entry(1, 2))
        tlb.insert(entry(2, 3))
        tlb.invalidate_asid(1)
        assert tlb.lookup(1, 0x1000) is None
        assert tlb.lookup(1, 0x2000) is None
        assert tlb.lookup(2, 0x3000) is not None

    def test_flush(self, tlb):
        for vpn in range(8):
            tlb.insert(entry(1, vpn))
        tlb.flush()
        assert list(tlb.iter_entries()) == []


class TestGeometry:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TLB(entries=10, ways=4, page_shift=12)

    def test_miss_rate(self, tlb):
        probes = [tlb.lookup(1, 0)]
        tlb.insert(entry(1, 0))
        probes.append(tlb.lookup(1, 0))
        assert [probe is None for probe in probes] == [True, False]

    def test_peek_leaves_lru_order_alone(self):
        tlb = TLB(entries=4, ways=2, page_shift=12)
        tlb.insert(entry(1, 0))
        tlb.insert(entry(1, 2))
        assert tlb.peek(1, 0).vpn == 0
        tlb.insert(entry(1, 4))  # evicts vpn 0: the peek did not touch it
        assert [e.vpn for e in tlb.iter_entries()] == [2, 4]
