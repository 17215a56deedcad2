"""Unit tests for the two-level TLB hierarchy."""

import pytest

from repro.common.config import sandy_bridge_tlbs
from repro.common.params import FOUR_KB, ONE_GB, TWO_MB
from repro.hw.tlbhierarchy import TLBHierarchy


@pytest.fixture
def hierarchy():
    return TLBHierarchy(sandy_bridge_tlbs(), FOUR_KB)


class TestLookupFill:
    def test_structures_built_per_table3(self, hierarchy):
        assert hierarchy.l1d.num_sets == 16
        assert hierarchy.l1i.num_sets == 32
        assert hierarchy.l2.num_sets == 128

    def test_miss_everywhere(self, hierarchy):
        entry, level = hierarchy.lookup(1, 0x1000)
        assert entry is None
        assert level is None

    def test_fill_then_l1_hit(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        entry, level = hierarchy.lookup(1, 0x1000)
        assert entry.frame == 5
        assert level == "l1"

    def test_l2_hit_promotes_to_l1(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        # Evict vpn 1 from L1D (16 sets, 4 ways): fill 4 conflicting vpns.
        for i in range(1, 5):
            hierarchy.fill(1, (1 + 16 * i) << 12, frame=i, writable=True, dirty=True)
        entry, level = hierarchy.lookup(1, 0x1000)
        assert level == "l2"
        # Promoted: next probe hits L1.
        entry, level = hierarchy.lookup(1, 0x1000)
        assert level == "l1"

    def test_inst_uses_itlb(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=False, dirty=False, kind="inst")
        assert len(list(hierarchy.l1i.iter_entries())) == 1
        assert list(hierarchy.l1d.iter_entries()) == []
        entry, level = hierarchy.lookup(1, 0x1000, kind="inst")
        assert level == "l1"


class TestOneGigNoL2:
    def test_1g_hierarchy_has_no_l2(self):
        hierarchy = TLBHierarchy(sandy_bridge_tlbs(), ONE_GB)
        assert hierarchy.l2 is None
        assert hierarchy.l1i is None
        hierarchy.fill(1, 0, frame=0, writable=True, dirty=True)
        entry, level = hierarchy.lookup(1, 123 << 12)
        assert level == "l1"


class TestInvalidation:
    def test_invalidate_page_hits_both_levels(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.invalidate_page(1, 0x1000)
        entry, _ = hierarchy.lookup(1, 0x1000)
        assert entry is None

    def test_invalidate_asid(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.fill(2, 0x1000, frame=6, writable=True, dirty=True)
        hierarchy.invalidate_asid(1)
        assert hierarchy.lookup(1, 0x1000)[0] is None
        assert hierarchy.lookup(2, 0x1000)[0] is not None

    def test_flush(self, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.flush()
        assert hierarchy.lookup(1, 0x1000)[0] is None


class TestStats:
    def test_miss_counting_uses_l2(self, hierarchy):
        assert hierarchy.lookup(1, 0x1000) == (None, None)
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        entry, level = hierarchy.lookup(1, 0x1000)
        assert (entry.frame, level) == (5, "l1")

    def test_2m_hierarchy(self):
        hierarchy = TLBHierarchy(sandy_bridge_tlbs(), TWO_MB)
        hierarchy.fill(1, 0, frame=0, writable=True, dirty=True)
        entry, level = hierarchy.lookup(1, TWO_MB.bytes - 1)
        assert level == "l1"
        entry, level = hierarchy.lookup(1, TWO_MB.bytes)
        assert entry is None
