"""Unit tests for the MMU facade (TLB + walker + caches)."""

import pytest

from helpers import TwoLevelSetup, make_native_setup, native_ctx
from repro.common.config import sandy_bridge_config
from repro.common.errors import GuestPageFault
from repro.hw.mmu import MMU

VA = (3 << 39) | (7 << 30) | (11 << 21) | (13 << 12)


def native_mmu():
    mem, table = make_native_setup()
    config = sandy_bridge_config(mode="native")
    mmu = MMU(config, mem)
    return mmu, mem, table


class TestTranslatePath:
    """``translate`` is the miss path: walk, count, fill. The caller
    (``System.access_many``) probes ``mmu.hierarchy`` first."""

    def test_miss_then_hit(self):
        mmu, mem, table = native_mmu()
        frame = mem.alloc_data_page()
        table.map(VA, frame, dirty=True)
        ctx = native_ctx(table)
        assert mmu.hierarchy.lookup(ctx.asid, VA) == (None, None)
        first = mmu.translate(ctx, VA)
        assert first.frame == frame
        entry, level = mmu.hierarchy.lookup(ctx.asid, VA)
        assert level == "l1"
        assert entry.frame == frame
        assert mmu.counters.tlb_misses == 1

    def test_write_through_clean_entry_rewalks(self):
        mmu, mem, table = native_mmu()
        frame = mem.alloc_data_page()
        table.map(VA, frame)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA, is_write=False)  # fills clean entry
        entry, _level = mmu.hierarchy.lookup(ctx.asid, VA)
        assert not entry.dirty  # no usable hit for a write: re-walk
        mmu.translate(ctx, VA, is_write=True)
        assert mmu.counters.tlb_misses == 2
        pte, _ = table.lookup(VA)
        assert pte.dirty
        assert mmu.hierarchy.lookup(ctx.asid, VA)[0].dirty

    def test_write_after_upgrade_hits(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page())
        ctx = native_ctx(table)
        mmu.translate(ctx, VA, is_write=True)
        entry, level = mmu.hierarchy.lookup(ctx.asid, VA)
        assert level == "l1"
        assert entry.writable and entry.dirty

    def test_fault_counts_partial_refs(self):
        mmu, mem, table = native_mmu()
        ctx = native_ctx(table)
        with pytest.raises(GuestPageFault):
            mmu.translate(ctx, VA)
        assert mmu.counters.fault_refs >= 1
        assert mmu.counters.tlb_misses == 0

    def test_miss_hook_invoked(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        seen = []
        mmu.miss_hook = lambda va, result: seen.append((va, result.refs))
        mmu.translate(native_ctx(table), VA)
        assert seen == [(VA, mmu.counters.walk_refs)]


class TestAgileDepthAccounting:
    def test_depth_histogram(self):
        setup = TwoLevelSetup()
        setup.map_guest(VA)
        setup.build_full_shadow()
        setup.set_switching(VA, 2)
        config = sandy_bridge_config(mode="agile")
        mmu = MMU(config, setup.host_mem, setup.guest_mem)
        mmu.translate(setup.agile_ctx(), VA)
        assert mmu.counters.walks_by_depth[1] == 1

    def test_reset_clears_counters(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        mmu.counters.reset()
        assert mmu.counters.tlb_misses == 0
        assert mmu.counters.walk_refs == 0
        assert sum(mmu.counters.walks_by_depth.values()) == 0


class TestInvalidation:
    def test_invalidate_page_forces_walk(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        mmu.invalidate_page(ctx.asid, VA)
        assert mmu.hierarchy.lookup(ctx.asid, VA) == (None, None)

    def test_flush_all(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        mmu.flush_all()
        assert mmu.hierarchy.lookup(ctx.asid, VA) == (None, None)

    def test_avg_refs_property(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        assert mmu.counters.walk_refs >= mmu.counters.tlb_misses == 1
