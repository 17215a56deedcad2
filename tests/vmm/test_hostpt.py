"""Unit tests for the host (nested) page table."""

import pytest

from repro.common.params import TWO_MB
from repro.mem.physmem import PhysicalMemory
from repro.vmm.hostpt import HostPageTable


@pytest.fixture
def hostpt():
    return HostPageTable(PhysicalMemory(1 << 14, "host"))


class TestBacking:
    def test_unbacked_translates_to_none(self, hostpt):
        assert hostpt.translate(5) is None

    def test_ensure_mapped_backs_and_reports_fault(self, hostpt):
        hfn, was_fault = hostpt.ensure_mapped(5)
        assert was_fault
        assert hostpt.translate(5) == hfn

    def test_second_ensure_is_not_a_fault(self, hostpt):
        hostpt.ensure_mapped(5)
        hfn, was_fault = hostpt.ensure_mapped(5)
        assert not was_fault

    def test_distinct_gfns_distinct_hfns(self, hostpt):
        a, _ = hostpt.ensure_mapped(1)
        b, _ = hostpt.ensure_mapped(2)
        assert a != b

    def test_unmap(self, hostpt):
        hostpt.ensure_mapped(5)
        hostpt.unmap(5)
        assert hostpt.translate(5) is None


class TestFlags:
    def test_write_protect(self, hostpt):
        """Backed gfns are mapped writable, and nothing in the VMM
        write-protects a host mapping, so host faults are never COW."""
        hostpt.ensure_mapped(5)
        assert hostpt.leaf_for_gfn(5).writable

    def test_dirty_tracking(self, hostpt):
        hostpt.ensure_mapped(5)
        assert not hostpt.is_dirty(5)
        hostpt.mark_dirty(5)
        assert hostpt.is_dirty(5)
        hostpt.clear_dirty(5)
        assert not hostpt.is_dirty(5)

    def test_dirty_on_unbacked_is_false(self, hostpt):
        assert not hostpt.is_dirty(99)
        hostpt.mark_dirty(99)  # no-op
        hostpt.clear_dirty(99)  # no-op


class TestLargeGranule:
    def test_2m_blocks(self):
        hostpt = HostPageTable(PhysicalMemory(1 << 14, "host"), TWO_MB)
        hfn, was_fault = hostpt.ensure_mapped(5)
        assert was_fault
        # The whole 512-frame block is now backed contiguously.
        hfn_other, was_fault_other = hostpt.ensure_mapped(511)
        assert not was_fault_other
        assert hfn_other - hfn == 511 - 5

    def test_2m_dirty_is_block_wide(self):
        hostpt = HostPageTable(PhysicalMemory(1 << 14, "host"), TWO_MB)
        hostpt.ensure_mapped(5)
        hostpt.mark_dirty(7)
        assert hostpt.is_dirty(100)  # same block
