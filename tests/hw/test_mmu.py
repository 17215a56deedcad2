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
    def test_miss_then_hit(self):
        mmu, mem, table = native_mmu()
        frame = mem.alloc_data_page()
        table.map(VA, frame, dirty=True)
        ctx = native_ctx(table)
        first = mmu.translate(ctx, VA)
        assert first.hit_level is None
        assert first.frame == frame
        second = mmu.translate(ctx, VA)
        assert second.hit_level == "l1"
        assert mmu.counters.tlb_hits_l1 == 1
        assert mmu.counters.tlb_misses == 1

    def test_write_through_clean_entry_rewalks(self):
        mmu, mem, table = native_mmu()
        frame = mem.alloc_data_page()
        table.map(VA, frame)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA, is_write=False)  # fills clean entry
        outcome = mmu.translate(ctx, VA, is_write=True)
        assert outcome.hit_level is None  # had to re-walk to set dirty
        assert mmu.counters.tlb_misses == 2
        pte, _ = table.lookup(VA)
        assert pte.dirty

    def test_write_after_upgrade_hits(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page())
        ctx = native_ctx(table)
        mmu.translate(ctx, VA, is_write=True)
        outcome = mmu.translate(ctx, VA, is_write=True)
        assert outcome.hit_level == "l1"

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
        mmu.translate(ctx := native_ctx(table), VA)
        mmu.translate(ctx, VA)  # hit: no hook
        assert len(seen) == 1
        assert seen[0][0] == VA


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
        outcome = mmu.translate(ctx, VA)
        assert outcome.hit_level is None

    def test_flush_all(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        mmu.flush_all()
        assert mmu.translate(ctx, VA).hit_level is None

    def test_avg_refs_property(self):
        mmu, mem, table = native_mmu()
        table.map(VA, mem.alloc_data_page(), dirty=True)
        ctx = native_ctx(table)
        mmu.translate(ctx, VA)
        assert mmu.counters.walk_refs >= mmu.counters.tlb_misses == 1
