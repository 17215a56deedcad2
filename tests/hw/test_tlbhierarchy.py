"""Unit tests for the two-level TLB hierarchy.

A hierarchy is filled directly and probed through the
:class:`MultiSizeTLB` front end that owns it, the one lookup there is.
"""

import pytest

from repro.common.config import sandy_bridge_tlbs
from repro.common.params import FOUR_KB, ONE_GB, TWO_MB
from repro.hw.tlbhierarchy import MultiSizeTLB


def front(page_size):
    """A one-granule TLB front end and its hierarchy."""
    tlb = MultiSizeTLB(sandy_bridge_tlbs(), {page_size}, primary=page_size)
    return tlb, tlb.hierarchies[page_size.shift]


@pytest.fixture
def tlb():
    return front(FOUR_KB)[0]


@pytest.fixture
def hierarchy(tlb):
    return tlb.hierarchies[FOUR_KB.shift]


class TestLookupFill:
    def test_structures_built_per_table3(self, hierarchy):
        assert hierarchy.l1d.num_sets == 16
        assert hierarchy.l1i.num_sets == 32
        assert hierarchy.l2.num_sets == 128

    def test_miss_everywhere(self, tlb):
        entry, level = tlb.lookup(1, 0x1000)
        assert entry is None
        assert level is None

    def test_fill_then_l1_hit(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        entry, level = tlb.lookup(1, 0x1000)
        assert entry.frame == 5
        assert level == "l1"

    def test_l2_hit_promotes_to_l1(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        # Evict vpn 1 from L1D (16 sets, 4 ways): fill 4 conflicting vpns.
        for i in range(1, 5):
            hierarchy.fill(1, (1 + 16 * i) << 12, frame=i, writable=True, dirty=True)
        entry, level = tlb.lookup(1, 0x1000)
        assert level == "l2"
        # Promoted: next probe hits L1.
        entry, level = tlb.lookup(1, 0x1000)
        assert level == "l1"

    def test_inst_uses_itlb(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=False, dirty=False, kind="inst")
        assert len(list(hierarchy.l1i.iter_entries())) == 1
        assert list(hierarchy.l1d.iter_entries()) == []
        entry, level = tlb.lookup(1, 0x1000, kind="inst")
        assert level == "l1"


class TestOneGigNoL2:
    def test_1g_hierarchy_has_no_l2(self):
        tlb, hierarchy = front(ONE_GB)
        assert hierarchy.l2 is None
        assert hierarchy.l1i is None
        hierarchy.fill(1, 0, frame=0, writable=True, dirty=True)
        entry, level = tlb.lookup(1, 123 << 12)
        assert level == "l1"


class TestInvalidation:
    def test_invalidate_page_hits_both_levels(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.invalidate_page(1, 0x1000)
        entry, _ = tlb.lookup(1, 0x1000)
        assert entry is None

    def test_invalidate_asid(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.fill(2, 0x1000, frame=6, writable=True, dirty=True)
        hierarchy.invalidate_asid(1)
        assert tlb.lookup(1, 0x1000)[0] is None
        assert tlb.lookup(2, 0x1000)[0] is not None

    def test_flush(self, tlb, hierarchy):
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        hierarchy.flush()
        assert tlb.lookup(1, 0x1000)[0] is None


class TestStats:
    def test_miss_counting_uses_l2(self, tlb, hierarchy):
        assert tlb.lookup(1, 0x1000) == (None, None)
        hierarchy.fill(1, 0x1000, frame=5, writable=True, dirty=True)
        entry, level = tlb.lookup(1, 0x1000)
        assert (entry.frame, level) == (5, "l1")

    def test_2m_hierarchy(self):
        tlb, hierarchy = front(TWO_MB)
        hierarchy.fill(1, 0, frame=0, writable=True, dirty=True)
        entry, level = tlb.lookup(1, TWO_MB.bytes - 1)
        assert level == "l1"
        entry, level = tlb.lookup(1, TWO_MB.bytes)
        assert entry is None
