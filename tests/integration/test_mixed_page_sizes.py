"""Section V: large pages used at only one translation stage.

"When large pages are used only in one stage of translation (e.g.,
guest only), they are in effect broken into smaller pages for entry
into the TLB." These tests pin that behaviour for every virtualized
mode, both directions of mismatch.
"""

import pytest

from repro.common.config import sandy_bridge_config
from repro.common.params import FOUR_KB, TWO_MB
from repro.core.machine import System
from repro.core.simulator import MachineAPI


def build(mode, guest, host):
    config = sandy_bridge_config(mode=mode, page_size=guest, host_page_size=host)
    system = System(config)
    api = MachineAPI(system)
    api.spawn(code_pages=1)
    return system, api


class TestGuestLargeHostSmall:
    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_entries_broken_to_4k(self, mode):
        system, api = build(mode, guest=TWO_MB, host=FOUR_KB)
        base = api.mmap(2 << 21)
        outcome = api.write(base + 12345)
        # The effective translation granule is the host's 4K.
        tlb_4k = system.mmu.hierarchy.hierarchies[12]
        assert list(tlb_4k.l1d.iter_entries())

    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_neighboring_4k_pieces_miss_separately(self, mode):
        system, api = build(mode, guest=TWO_MB, host=FOUR_KB)
        base = api.mmap(1 << 21)
        api.write(base)
        misses_before = system.mmu.counters.tlb_misses
        api.read(base + 4096)  # same 2M guest page, different 4K piece
        assert system.mmu.counters.tlb_misses > misses_before

    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_translation_correct_across_pieces(self, mode):
        system, api = build(mode, guest=TWO_MB, host=FOUR_KB)
        base = api.mmap(1 << 21)
        api.write(base)
        proc = system.kernel.current
        gfn_base = proc.page_table.translate(base)[0]
        for offset_pages in (0, 1, 7, 511):
            outcome = api.read(base + offset_pages * 4096)
            expected = system.vmm.hostpt.translate(gfn_base + offset_pages)
            assert outcome.frame == expected, offset_pages


class TestGuestSmallHostLarge:
    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_entries_enter_4k_array(self, mode):
        system, api = build(mode, guest=FOUR_KB, host=TWO_MB)
        base = api.mmap(8 << 12)
        for i in range(8):
            api.write(base + i * 4096)
        tlb_4k = system.mmu.hierarchy.hierarchies[12]
        assert len(list(tlb_4k.l1d.iter_entries())) >= 8

    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_host_backs_whole_blocks(self, mode):
        system, api = build(mode, guest=FOUR_KB, host=TWO_MB)
        base = api.mmap(8 << 12)
        api.write(base)
        proc = system.kernel.current
        gfn = proc.page_table.translate(base)[0]
        # The covering 512-frame host block is contiguous.
        block = gfn // 512 * 512
        hfn0 = system.vmm.hostpt.translate(block)
        hfn1 = system.vmm.hostpt.translate(block + 1)
        assert hfn1 == hfn0 + 1


class TestMatchedSizesStillWork:
    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_2m_both_stages_uses_2m_array(self, mode):
        system, api = build(mode, guest=TWO_MB, host=TWO_MB)
        base = api.mmap(1 << 21)
        api.write(base)
        tlb_2m = system.mmu.hierarchy.hierarchies[21]
        assert list(tlb_2m.l1d.iter_entries())
        # Whole 2M page: one entry serves every offset.
        misses = system.mmu.counters.tlb_misses
        api.read(base + (1 << 20))
        assert system.mmu.counters.tlb_misses == misses

    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_2m_both_stages_walks_to_the_block_base(self, mode):
        """A walk from any 4K piece of a 2M page fills the 2M block's
        base frame, in the nested leaf's arithmetic as in the 1D one."""
        system, api = build(mode, guest=TWO_MB, host=TWO_MB)
        base = api.mmap(1 << 21)
        api.write(base)
        gfn = system.kernel.current.page_table.translate(base)[0]
        expected = system.vmm.hostpt.translate(gfn)
        for offset_pages in (1, 7, 511):
            system.mmu.flush_all()
            assert api.read(base + offset_pages * 4096).frame == expected
