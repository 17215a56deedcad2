"""Unit tests for the multi-granule TLB front end."""

import pytest

from repro.common.config import sandy_bridge_tlbs
from repro.common.params import FOUR_KB, TWO_MB
from repro.hw.tlbhierarchy import MultiSizeTLB


@pytest.fixture
def tlb():
    return MultiSizeTLB(sandy_bridge_tlbs(), {FOUR_KB, TWO_MB}, primary=FOUR_KB)


class TestFillRouting:
    def test_4k_translation_enters_4k_array(self, tlb):
        tlb.fill(1, 0x1000, frame=5, writable=True, dirty=True, page_shift=12)
        assert len(list(tlb.hierarchies[12].l1d.iter_entries())) == 1
        assert list(tlb.hierarchies[21].l1d.iter_entries()) == []

    def test_2m_translation_enters_2m_array(self, tlb):
        tlb.fill(1, 0, frame=0, writable=True, dirty=True, page_shift=21)
        assert len(list(tlb.hierarchies[21].l1d.iter_entries())) == 1

    def test_lookup_probes_all_sizes(self, tlb):
        tlb.fill(1, 0, frame=0, writable=True, dirty=True, page_shift=21)
        entry, _level = tlb.lookup(1, (1 << 20))  # inside the 2M page
        assert entry is not None

    def test_unsupported_size_breaks_down(self):
        # Only a 4K array available: a 2M fill must be broken down.
        tlb = MultiSizeTLB(sandy_bridge_tlbs(), {FOUR_KB}, primary=FOUR_KB)
        tlb.fill(1, 5 << 12, frame=512, writable=True, dirty=True, page_shift=21)
        entry, _level = tlb.lookup(1, 5 << 12)
        assert entry is not None
        assert entry.frame == 512 + 5  # the exact 4K piece
        # Neighboring pieces were NOT filled.
        assert tlb.lookup(1, 6 << 12)[0] is None

    def test_requires_primary_geometry(self):
        with pytest.raises(ValueError):
            MultiSizeTLB(sandy_bridge_tlbs(), set(), primary=FOUR_KB)


class TestInvalidation:
    def test_invalidate_page_hits_all_arrays(self, tlb):
        tlb.fill(1, 0, frame=0, writable=True, dirty=True, page_shift=21)
        tlb.fill(1, 0x1000, frame=1, writable=True, dirty=True, page_shift=12)
        tlb.invalidate_page(1, 0)
        tlb.invalidate_page(1, 0x1000)
        assert tlb.lookup(1, 0)[0] is None
        assert tlb.lookup(1, 0x1000)[0] is None

    def test_invalidate_asid(self, tlb):
        tlb.fill(1, 0x1000, frame=1, writable=True, dirty=True, page_shift=12)
        tlb.fill(2, 0x1000, frame=2, writable=True, dirty=True, page_shift=12)
        tlb.invalidate_asid(1)
        assert tlb.lookup(1, 0x1000)[0] is None
        assert tlb.lookup(2, 0x1000)[0] is not None

    def test_flush_and_miss_counting(self, tlb):
        tlb.fill(1, 0x1000, frame=1, writable=True, dirty=True, page_shift=12)
        tlb.flush()
        assert tlb.lookup(1, 0x1000) == (None, None)
        assert list(tlb.iter_entries()) == []
